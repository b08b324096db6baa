package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// envStamp records where and how a result was measured. A number
// without its machine is not comparable to anything.
type envStamp struct {
	NumCPU           int                `json:"nproc"`
	GeneratorProcs   int                `json:"gomaxprocs_generator"`
	DaemonProcs      int                `json:"gomaxprocs_daemon"`
	CPUModel         string             `json:"cpu_model"`
	Kernel           string             `json:"kernel"`
	GoVersion        string             `json:"go_version"`
	GitCommit        string             `json:"git_commit"`
	StealShare       float64            `json:"cpu_steal_share"`
	Seed             int64              `json:"seed"`
	Seconds          float64            `json:"seconds"`
	ClosedSeconds    float64            `json:"closed_loop_seconds"`
	OpenSeconds      float64            `json:"open_loop_seconds"`
	ReferenceRates   map[string]float64 `json:"reference_rates_per_s"`
	ClientConns      map[string]int     `json:"client_connections"`
	DaemonFlags      []string           `json:"daemon_flags"`
	TenantCount      int                `json:"tenants"`
	DatasetScale     float64            `json:"dataset_scale"`
	SetupRepetitions int                `json:"setup_repetitions"`
}

// stamped is one line of a results file.
type stamped struct {
	Workload string         `json:"workload"`
	Trace    int            `json:"trace"`
	Env      envStamp       `json:"env"`
	Report   *report        `json:"report"`
	Samples  map[string]int `json:"samples,omitempty"`
	// Extras are ungated diagnostics of the same run.
	Extras map[string]float64 `json:"extras,omitempty"`
}

func stamp(opt options, w *workload, info runInfo) envStamp {
	st := envStamp{
		NumCPU:           runtime.NumCPU(),
		GeneratorProcs:   runtime.GOMAXPROCS(0),
		DaemonProcs:      info.daemonProcs,
		StealShare:       info.stealShare,
		CPUModel:         cpuModel(),
		Kernel:           firstLine("/proc/sys/kernel/osrelease"),
		GoVersion:        runtime.Version(),
		GitCommit:        gitCommit(opt.repo),
		Seed:             opt.seed,
		Seconds:          opt.seconds,
		ClosedSeconds:    opt.seconds * w.closedShare,
		OpenSeconds:      opt.seconds * (1 - w.closedShare),
		ReferenceRates:   map[string]float64{},
		ClientConns:      map[string]int{},
		DaemonFlags:      append([]string{"-backend", "wal", "-fsync", "commit", "-tenant-parallelism", "1"}, w.flags()...),
		TenantCount:      w.tenants,
		DatasetScale:     w.scale,
		SetupRepetitions: opt.setups,
	}
	for _, l := range w.lanes(&env{w: w}) {
		st.ReferenceRates[l.name] = l.rate
		st.ClientConns[l.name] = l.conns
	}
	return st
}

// cpuTimes is the machine-wide CPU accounting of /proc/stat, in ticks.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	var c cpuTimes
	f := strings.Fields(firstLine("/proc/stat"))
	for i, v := range f {
		if i == 0 {
			continue // "cpu"
		}
		n, _ := strconv.ParseFloat(v, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			c.total += n
		}
		if i == 8 {
			c.steal = n
		}
	}
	return c
}

// stealSince is the share of all CPU time since before that was stolen.
func (c cpuTimes) stealSince(before cpuTimes) float64 {
	return ratio(c.steal-before.steal, c.total-before.total)
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit is the checked-out commit, or "" where the tree is not a
// git repository (the driver's checkouts are not).
func gitCommit(repo string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repo
	b, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// appendResult adds one stamped result to a JSON-lines file.
func appendResult(path string, s stamped) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(s)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
