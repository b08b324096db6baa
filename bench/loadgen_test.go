package main

import (
	"runtime"
	"testing"
	"time"
)

// slowRun pretends every op takes service and records it the way api.run
// does: latency from the due time, lateness as sent minus due.
func slowRun(service time.Duration) runFn {
	return func(o *op, due, sent time.Time, r *recorder) {
		time.Sleep(service)
		r.attempted++
		r.samples = append(r.samples, sample{kind: o.kind, lat: time.Since(due), late: sent.Sub(due)})
	}
}

func TestScheduleIsSeededAndAtRate(t *testing.T) {
	a := schedule(1000, time.Second, 7)
	b := schedule(1000, time.Second, 7)
	c := schedule(1000, time.Second, 8)
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("same seed, different schedule")
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Fatal("different seeds, same schedule")
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Fatalf("%d arrivals in 1 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("due times go backwards")
		}
	}
}

// An open loop must charge an op the time it waited behind a busy
// connection: with one connection, 5 ms of service and arrivals every
// ~1 ms, latencies from the due time grow far beyond the service time
// and the generator reports how late it ran.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	l := &lane{name: "q", conns: 1, rate: 1000, next: func(i int) op { return op{kind: kQuery, tenant: i} }}
	rec := openLoop([]*lane{l}, 40*time.Millisecond, 1, slowRun(5*time.Millisecond))
	n := len(rec.samples)
	if n != len(schedule(1000, 40*time.Millisecond, 1)) {
		t.Fatalf("ran %d ops, schedule has %d", n, len(schedule(1000, 40*time.Millisecond, 1)))
	}
	if l.start != n {
		t.Fatalf("lane advanced to %d, want %d", l.start, n)
	}
	last := rec.samples[n-1]
	if last.lat < 50*time.Millisecond {
		t.Errorf("last op's latency %v hides its wait behind %d×5 ms of service", last.lat, n-1)
	}
	if last.late < 40*time.Millisecond {
		t.Errorf("last op reported %v late, want most of its wait", last.late)
	}
	if first := rec.samples[0]; first.late > 20*time.Millisecond {
		t.Errorf("first op %v late on an idle connection", first.late)
	}
}

// Under the service capacity nothing queues: latency stays near the
// service time and ops finish inside their phase, in order.
func TestOpenLoopKeepsUpBelowCapacity(t *testing.T) {
	l := &lane{name: "q", conns: 1, rate: 50, next: func(i int) op { return op{kind: kQuery} }}
	rec := openLoop([]*lane{l}, 200*time.Millisecond, 3, slowRun(time.Millisecond))
	for _, s := range rec.samples {
		if s.lat > 60*time.Millisecond {
			t.Errorf("latency %v at a fiftieth of capacity", s.lat)
		}
		if s.at <= 0 || s.at > 400*time.Millisecond {
			t.Errorf("completion stamp %v outside the phase", s.at)
		}
	}
}

func TestClosedLoopAdvancesTheLane(t *testing.T) {
	seen := make(chan int, 1024)
	l := &lane{name: "q", conns: 1, start: 10, next: func(i int) op { seen <- i; return op{kind: kQuery} }}
	rec := closedLoop([]*lane{l}, 20*time.Millisecond, slowRun(time.Millisecond))
	if first := <-seen; first != 10 {
		t.Errorf("first op index %d, want the lane's start 10", first)
	}
	if l.start != 10+len(rec.samples) {
		t.Errorf("lane at %d after %d ops from 10", l.start, len(rec.samples))
	}
}

func TestRefusesMoreConnectionsThanCPUs(t *testing.T) {
	if err := checkConns([]*lane{{conns: runtime.NumCPU()}}); err != nil {
		t.Errorf("one connection per CPU refused: %v", err)
	}
	if err := checkConns([]*lane{{conns: runtime.NumCPU()}, {conns: 1}}); err == nil {
		t.Error("more connections than CPUs accepted")
	}
	for _, w := range workloads {
		if err := checkConns(w.lanes(&env{w: w})); err != nil && runtime.NumCPU() >= 2 {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
