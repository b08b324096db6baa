package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever called on maps of strings and numbers
	}
	return b
}

// buildDaemon compiles cmd/imemexd from the repository at repo into
// outDir and returns the binary's path.
func buildDaemon(repo, outDir string) (string, error) {
	bin := filepath.Join(outDir, "imemexd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/imemexd")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/imemexd in %s: %w", repo, err)
	}
	return bin, nil
}

// daemon is one running imemexd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	do   doer
	hc   *http.Client
}

var servingRE = regexp.MustCompile(`serving on (http://[0-9.]+:[0-9]+)`)

// startDaemon spawns bin on an ephemeral loopback port with default
// flags plus extra, and waits until it answers /healthz. conns bounds
// the client's connection pool.
func startDaemon(bin, root string, extra []string, conns int) (*daemon, error) {
	args := append([]string{"-root", root, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, however the benchmark
	// ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	found := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				found <- m[1]
				break
			}
		}
		io.Copy(io.Discard, stderr) // keep the pipe drained until exit
	}()
	select {
	case d.base = <-found:
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("imemexd did not report its address within 20s")
	}
	d.hc = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
	d.do = httpDoer(d.base, d.hc)
	for i := 0; i < 200; i++ {
		if status, err := d.do("GET", "/healthz", nil, new(bytes.Buffer)); err == nil && status == http.StatusOK {
			return d, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("imemexd at %s never became healthy", d.base)
}

// kill SIGKILLs the daemon and waits until it is gone: the crash of the
// durability check, and the teardown of every run.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
	if d.hc != nil {
		d.hc.CloseIdleConnections()
	}
}

// status returns the value of one field of the daemon's
// /proc/<pid>/status ("" if unreadable).
func (d *daemon) status(key string) string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// peakRSSMB is the daemon's high-water resident set.
func (d *daemon) peakRSSMB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(d.status("VmHWM"), " kB"), 64)
	return kb / 1024
}

// counters reads the srv_* counters from the daemon's /debug/metrics.
func (d *daemon) counters() map[string]float64 {
	var b bytes.Buffer
	if _, err := d.do("GET", "/debug/metrics", nil, &b); err != nil {
		return nil
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	json.Unmarshal(b.Bytes(), &snap)
	return snap.Counters
}

// gomaxprocs is the GOMAXPROCS the daemon's runtime chose. imemexd
// exposes no gauge for it, so this applies the runtime's own rule to
// the daemon process: the inherited GOMAXPROCS variable if set, else
// the CPUs in its affinity mask.
func (d *daemon) gomaxprocs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	n := 0
	for _, part := range strings.Split(d.status("Cpus_allowed_list"), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0
		}
		b := a
		if isRange {
			b, _ = strconv.Atoi(hi)
		}
		n += b - a + 1
	}
	return n
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
