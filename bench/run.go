package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// options are one invocation's settings.
type options struct {
	repo     string // repository root (holds cmd/imemexd)
	buildDir string // where binaries and data roots go
	seed     int64
	seconds  float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// session is one workload brought to serving state.
type session struct {
	w      *workload
	e      *env
	opt    options
	bin    string
	root   string
	d      *daemon
	a      *api
	lanes  []*lane
	conns  int
	setupS []float64
	// steal0 is the machine's stolen CPU time when the session opened.
	steal0 cpuTimes
}

// open builds the daemon, generates the inputs and runs set-up
// opt.setups times, keeping the last daemon.
func open(w *workload, opt options) (*session, error) {
	bin, err := buildDaemon(opt.repo, opt.buildDir)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(w, opt.seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, e: e, opt: opt, bin: bin, steal0: readCPUTimes()}
	s.lanes = w.lanes(e)
	if err := checkConns(s.lanes); err != nil {
		return nil, err
	}
	for _, l := range s.lanes {
		s.conns += l.conns
	}
	s.root, err = os.MkdirTemp(opt.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	for i := 0; i < opt.setups; i++ {
		if s.d != nil {
			s.d.kill()
		}
		dataRoot := filepath.Join(s.root, "data"+strconv.Itoa(i))
		if i > 0 {
			os.RemoveAll(filepath.Join(s.root, "data"+strconv.Itoa(i-1)))
		}
		d, took, err := w.setup(bin, dataRoot, e, s.conns)
		if err != nil {
			s.close()
			return nil, err
		}
		s.d = d
		s.setupS = append(s.setupS, took.Seconds())
	}
	s.a = &api{do: s.d.do, tenants: w.tenantNames(), acks: e.acks}
	return s, nil
}

func (s *session) dataRoot() string {
	return filepath.Join(s.root, "data"+strconv.Itoa(s.opt.setups-1))
}

func (s *session) close() {
	s.d.kill()
	os.RemoveAll(s.root)
}

// restart crashes the daemon with SIGKILL and brings it back on the
// same root. SIGKILL keeps the page cache, so this proves recovery of
// what was written, not of what was fsynced; imemexd offers no hook to
// drop unflushed writes from outside.
func (s *session) restart() error {
	s.d.kill()
	d, err := startDaemon(s.bin, s.dataRoot(), s.w.flags(), s.conns)
	if err != nil {
		return err
	}
	s.d = d
	s.a.do = d.do
	return nil
}

// checkMarkers asks every tenant for every acknowledged, undeleted
// marker: each must return all files of its source on its own tenant
// and nothing on the next one.
func (s *session) checkMarkers(r *recorder) {
	s.e.acks.mu.Lock()
	ids := make([]string, 0, len(s.e.acks.live))
	for id := range s.e.acks.live {
		ids = append(ids, id)
	}
	s.e.acks.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		src := s.e.acks.live[id]
		t := src.tenant
		text := strconv.Quote(src.marker)
		for _, c := range []struct{ tenant, want int }{{t, filesPerSource}, {(t + 1) % s.w.tenants, 0}} {
			q := newQuery(text, famKW, c.want)
			_, resp, ok := s.a.exchange(r, time.Now(), "POST", s.a.path(c.tenant, "/query"), q.body)
			if ok {
				s.a.checkPage(r, q, resp, true)
			}
		}
	}
}

// phases are the measured parts of one run.
type phases struct {
	closed, open       *recorder
	closedDur, openDur time.Duration
	// probe holds the samples of the op kinds the streams lack.
	probe     *recorder
	check     *recorder // post-crash marker checks
	peakRSS   float64
	storeRate float64
}

// measure runs the closed loop, the open loop, the probes and the crash
// check.
func (s *session) measure() (*phases, error) {
	p := &phases{probe: &recorder{}, check: &recorder{}}
	total := time.Duration(s.opt.seconds * float64(time.Second))
	p.closedDur = time.Duration(float64(total) * s.w.closedShare)
	before := make([]int, len(s.lanes))
	for i, l := range s.lanes {
		before[i] = l.start
	}
	p.closed = closedLoop(s.lanes, p.closedDur, s.a.run)
	for i, l := range s.lanes {
		// What the frozen reference rates were calibrated from.
		fmt.Fprintf(os.Stderr, "closed loop: lane %s did %.1f ops/s on %d connection(s); open-loop rate %.1f/s\n",
			l.name, float64(l.start-before[i])/p.closedDur.Seconds(), l.conns, l.rate)
	}
	p.open, p.openDur = &recorder{}, total-p.closedDur
	if p.openDur > 0 {
		p.open = openLoop(s.lanes, p.openDur, s.opt.seed, s.a.run)
	}

	// Memory and space are read before the crash: the restarted daemon is
	// a new process that has served nothing yet.
	p.peakRSS = s.d.peakRSSMB()
	live := int64(s.w.tenants) * s.e.userBytes
	s.e.acks.mu.Lock()
	for _, src := range s.e.acks.live {
		live += int64(src.bytes)
	}
	s.e.acks.mu.Unlock()
	p.storeRate = float64(dirBytes(s.dataRoot())) / float64(live)

	// The probes run on a daemon restarted after a crash, over the data
	// the workload left. Run straight after the measured phases they took
	// on whatever heap and collector state those phases had ended in, and
	// their medians moved by a third from run to run; a new process
	// starts from the same state every time.
	if err := s.restart(); err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	for t := 0; t < s.w.tenants; t++ {
		if err := expectOK(s.a, "GET", s.a.path(t, "/digest"), nil); err != nil {
			return nil, fmt.Errorf("after restart: %w", err)
		}
	}
	for _, pr := range []struct {
		k    kind
		next func(int) op
		n    int
	}{{kWalk, s.e.walkProbe, probeWalks}, {kIngest, s.e.ingestProbe, probeIngestOps}, {kColdOpen, s.e.coldOpenProbe, probeColdOpens}} {
		if !s.w.has[pr.k] {
			p.probe = mergeRecorders(p.probe, sequential(pr.next, pr.n, s.e.probeTraffic, s.a.run))
		}
	}

	// Crash again, so that what the ingest probe wrote is covered too,
	// and ask for every marker.
	if err := s.restart(); err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	s.checkMarkers(p.check)
	return p, nil
}

// windows is how many equal slices each measured phase is cut into. A
// metric is computed in every slice and the median slice is reported:
// on a small shared machine a run is interrupted by bursts of stolen
// CPU, and the median slice is what the run looked like between them.
const windows = 7

// minWindow is the fewest samples a slice needs to vote.
const minWindow = 5

// phaseOf returns the recorder holding the samples pick accepts and its
// duration (0 for the probe, which is not sliced): the open loop when
// the workload has one and its streams produce them, else the closed
// loop, else the probe.
func (p *phases) phaseOf(pick func(sample) bool) (*recorder, time.Duration) {
	for _, c := range []struct {
		r *recorder
		d time.Duration
	}{{p.open, p.openDur}, {p.closed, p.closedDur}} {
		for _, s := range c.r.samples {
			if pick(s) {
				return c.r, c.d
			}
		}
	}
	return p.probe, 0
}

// sliced cuts the samples pick accepts into windows by completion time
// and returns each slice's ascending latencies in ms.
func sliced(r *recorder, d time.Duration, pick func(sample) bool) [][]float64 {
	out := make([][]float64, windows)
	for _, s := range r.samples {
		if pick(s) {
			w := min(int(int64(s.at)*windows/int64(d)), windows-1)
			out[w] = append(out[w], ms(s.lat))
		}
	}
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// latency is the pct-th percentile latency in ms of the samples pick
// accepts — the median over the phase's slices, or over all samples for
// a probe or a phase too thin to slice — and the sample count.
func (p *phases) latency(pick func(sample) bool, pct float64) (float64, int) {
	r, d := p.phaseOf(pick)
	all := sortedMS(r.lats(pick))
	if d > 0 {
		var votes []float64
		for _, w := range sliced(r, d, pick) {
			if len(w) >= minWindow {
				votes = append(votes, percentile(w, pct))
			}
		}
		if len(votes) > windows/2 {
			return median(votes), len(all)
		}
	}
	return percentile(all, pct), len(all)
}

// throughput is the median over the closed loop's slices of the
// per-second count of samples pick accepts.
func (p *phases) throughput(pick func(sample) bool) (float64, int) {
	per := p.closedDur.Seconds() / windows
	var votes []float64
	n := 0
	for _, w := range sliced(p.closed, p.closedDur, pick) {
		votes = append(votes, float64(len(w))/per)
		n += len(w)
	}
	return median(votes), n
}

func isJoin(s sample) bool {
	return s.kind == kQuery && (s.fam == famUnion || s.fam == famJoin)
}

// endToEndMetrics computes the gated metrics of one run.
func (s *session) endToEndMetrics(p *phases) (map[string]float64, map[string]int) {
	m, n := map[string]float64{}, map[string]int{}
	set := func(name string, v float64, count int) { m[name], n[name] = v, count }
	lat := func(name string, pick func(sample) bool, pct float64) {
		v, c := p.latency(pick, pct)
		set(name, v, c)
	}

	set("setup_s", median(s.setupS), len(s.setupS))
	set("peak_rss_mb", p.peakRSS, 1)
	set("store_bytes_per_user_byte", p.storeRate, 1)
	lat("query_p50_ms", ofKind(kQuery), 50)
	v, c := p.throughput(ofKind(kQuery))
	set("query_throughput_rps", v, c)
	lat("query_join_p50_ms", isJoin, 50)
	lat("page_walk_p50_ms", ofKind(kWalk), 50)
	lat("ingest_p50_ms", ofKind(kIngest), 50)
	if s.w.has[kIngest] {
		v, c = p.throughput(ofKind(kIngest))
		set("ingest_files_per_s", v*filesPerSource, c)
	} else {
		// The probe's steady state is one add and one delete per source;
		// medians keep one slow fsync from setting the rate.
		add, adds := p.latency(ofKind(kIngest), 50)
		del, _ := p.latency(ofKind(kDelete), 50)
		set("ingest_files_per_s", filesPerSource*1000/(add+del), adds)
	}
	lat("cold_open_p50_ms", ofKind(kColdOpen), 50)
	return m, n
}

// runInfo is what a run adds to its report for the results file.
type runInfo struct {
	// samples is how many samples each metric was computed from.
	samples map[string]int
	// extras are ungated diagnostics kept beside the result.
	extras      map[string]float64
	daemonProcs int
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to someone else while the session ran.
	stealShare float64
}

// finish fills in what is known only when the session ends.
func (s *session) finish(info *runInfo) {
	info.stealShare = readCPUTimes().stealSince(s.steal0)
	fmt.Fprintf(os.Stderr, "hypervisor stole %.1f%% of the CPU time during this run\n", 100*info.stealShare)
}

// runUntraced is one `--trace 0` run.
func runUntraced(w *workload, opt options) (*report, runInfo, error) {
	var info runInfo
	s, err := open(w, opt)
	if err != nil {
		return nil, info, err
	}
	defer s.close()
	info.daemonProcs = s.d.gomaxprocs()
	p, err := s.measure()
	if err != nil {
		return nil, info, err
	}
	all := mergeRecorders(p.closed, p.open, p.probe, p.check)
	for _, note := range all.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", note)
	}
	got, counts := s.endToEndMetrics(p)
	info.samples = counts
	info.extras = map[string]float64{}
	// Tails are kept beside the result but gate nothing; see README.
	for _, pct := range []float64{95, 99} {
		info.extras[fmt.Sprintf("query_p%g_ms", pct)], _ = p.latency(ofKind(kQuery), pct)
	}
	vals, err := fill(endToEnd, got)
	if err != nil {
		return nil, info, err
	}
	printDiagnostics(p)
	s.finish(&info)
	return &report{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: vals}, info, nil
}

// printDiagnostics writes the ungated figures of an untraced run to
// standard error: generator lateness, and the highest tail each sample
// supports. Tails beyond p95 never gate a change; see README.
func printDiagnostics(p *phases) {
	var late []time.Duration
	for _, s := range p.open.samples {
		late = append(late, s.late)
	}
	fmt.Fprintf(os.Stderr, "loadgen: sent %d, late p95 %.3f ms\n", len(late), percentile(sortedMS(late), 95))
	for _, k := range []kind{kQuery, kWalk, kIngest, kColdOpen} {
		r, _ := p.phaseOf(ofKind(k))
		l := sortedMS(r.lats(ofKind(k)))
		if pct, ok := highestPercentile(len(l)); ok {
			fmt.Fprintf(os.Stderr, "%s: n=%d p50 %.3f ms, p%g %.3f ms (highest with >=10 beyond)\n",
				k, len(l), percentile(l, 50), pct, percentile(l, pct))
		}
	}
}
