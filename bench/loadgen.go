package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// lane is one independent stream of ops with its own connections: the
// query lanes have two, ingest_mixed has a writer lane and a reader
// lane of one each.
type lane struct {
	name  string
	conns int
	// rate is the open-loop arrival rate in ops per second.
	rate float64
	// next returns the i-th op of the stream; it must be a pure function
	// of i so both loops and every depth of the ladder see the same ops.
	next func(i int) op
	// start is the stream index the next phase begins at, so the closed
	// loop, the open loop and the ladder never reuse an op.
	start int
}

// checkConns refuses a run that would open more client connections than
// the machine has CPUs: more clients than cores measures the scheduler,
// the mistake behind BENCH_iql.json's num_cpu 1 / gomaxprocs 8.
func checkConns(lanes []*lane) error {
	total := 0
	for _, l := range lanes {
		total += l.conns
	}
	if n := runtime.NumCPU(); total > n {
		return fmt.Errorf("%d client connections on %d CPUs: refusing to measure scheduler queueing", total, n)
	}
	return nil
}

// runFn executes one op: due is its scheduled time, sent when the
// generator reached it.
type runFn func(o *op, due, sent time.Time, r *recorder)

// closedLoop drives every lane with conns workers, each sending its
// next op as soon as the previous one answered, for d.
func closedLoop(lanes []*lane, d time.Duration, run runFn) *recorder {
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	var recs []*recorder
	next := make([]atomic.Int64, len(lanes))
	for li, l := range lanes {
		next[li].Store(int64(l.start))
		for c := 0; c < l.conns; c++ {
			r := &recorder{}
			recs = append(recs, r)
			wg.Add(1)
			go func(l *lane, idx *atomic.Int64) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					o := l.next(int(idx.Add(1) - 1))
					now := time.Now()
					from := len(r.samples)
					run(&o, now, now, r)
					r.stamp(from, begin)
				}
			}(l, &next[li])
		}
	}
	wg.Wait()
	for li, l := range lanes {
		l.start = int(next[li].Load())
	}
	return mergeRecorders(recs...)
}

// schedule returns the due offsets of a Poisson arrival process at rate
// per second over d, from its own seeded generator: the same seed gives
// the same offered load.
func schedule(rate float64, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openLoop offers each lane its fixed-rate schedule for d. Workers take
// arrivals in order; one that finds every connection busy waits, and
// because each op is timed from its due time that wait is charged to
// it, as a user would experience it.
func openLoop(lanes []*lane, d time.Duration, seed int64, run runFn) *recorder {
	begin := time.Now()
	var wg sync.WaitGroup
	var recs []*recorder
	for li, l := range lanes {
		due := schedule(l.rate, d, seed+int64(li)*7919)
		var idx atomic.Int64
		first := l.start
		l.start += len(due)
		for c := 0; c < l.conns; c++ {
			r := &recorder{}
			recs = append(recs, r)
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				for {
					i := int(idx.Add(1) - 1)
					if i >= len(due) {
						return
					}
					// The op is built before the wait, off the timed path.
					o := l.next(first + i)
					at := begin.Add(due[i])
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
					from := len(r.samples)
					run(&o, at, time.Now(), r)
					r.stamp(from, begin)
				}
			}(l)
		}
	}
	wg.Wait()
	return mergeRecorders(recs...)
}

// sequential runs the first n ops of front back to back on the caller's
// goroutine while one more connection runs back's ops closed-loop: a
// probe, beside background traffic that keeps both processes awake. On
// an otherwise idle machine a lone request-reply sequence mostly times
// how fast the host wakes a halted vCPU, which varies by a third from
// minute to minute.
func sequential(front func(i int) op, n int, back func(i int) op, run runFn) *recorder {
	stop := make(chan struct{})
	done := make(chan *recorder)
	go func() {
		r := &recorder{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- r
				return
			default:
			}
			o := back(i)
			now := time.Now()
			run(&o, now, now, r)
		}
	}()
	r := &recorder{}
	for i := 0; i < n; i++ {
		o := front(i)
		now := time.Now()
		run(&o, now, now, r)
	}
	close(stop)
	return mergeRecorders(r, <-done)
}
