package main

import (
	"fmt"
	"time"
)

// limit is a latency limit on the workload's primary op: the percentile
// it is set on and the bound in milliseconds.
type limit struct {
	pct float64
	ms  float64
}

// limits are the service levels the sweep judges a rate by. A failed or
// refused request misses its limit whatever its latency.
var limits = map[kind]limit{
	kQuery:    {95, 50},
	kIngest:   {95, 250},
	kColdOpen: {90, 1000},
}

// sweepScales are the multiples of the reference rate offered.
var sweepScales = []float64{0.5, 1, 1.5, 2}

// runSweep offers the workload's open loop at each multiple of its
// reference rate on one daemon and prints, per rate, the primary op's
// latency, the generator's lateness and whether the limit held, then
// the highest rate that met it. The output is a step function of the
// rates tried and cannot repeat within a tenth, so it gates nothing.
func runSweep(w *workload, opt options) error {
	opt.setups = 1
	s, err := open(w, opt)
	if err != nil {
		return err
	}
	defer s.close()
	lim := limits[w.primary]
	base := make([]float64, len(s.lanes))
	for i, l := range s.lanes {
		base[i] = l.rate
	}
	best := 0.0
	for _, scale := range sweepScales {
		for i, l := range s.lanes {
			l.rate = base[i] * scale
		}
		rec := openLoop(s.lanes, time.Duration(opt.seconds*float64(time.Second)), opt.seed, s.a.run)
		lat := sortedMS(rec.lats(ofKind(w.primary)))
		var late []time.Duration
		for _, sm := range rec.samples {
			late = append(late, sm.late)
		}
		lateP95 := percentile(sortedMS(late), 95)
		at := percentile(lat, lim.pct)
		// A generator running later than the limit itself means the
		// backlog is growing: the daemon is past saturation at this rate.
		met := rec.failed == 0 && at <= lim.ms && lateP95 <= lim.ms
		if met {
			best = scale
		}
		fmt.Printf("sweep.%gx.%s_p50_ms %.4f\n", scale, w.primary, percentile(lat, 50))
		fmt.Printf("sweep.%gx.%s_p%g_ms %.4f (limit %g ms, n=%d, failed %d)\n", scale, w.primary, lim.pct, at, lim.ms, len(lat), rec.failed)
		fmt.Printf("sweep.%gx.loadgen_late_p95_ms %.4f\n", scale, lateP95)
		fmt.Printf("sweep.%gx.met %v\n", scale, met)
	}
	fmt.Printf("sweep.max_rate_x %g (highest multiple of the reference rate meeting %s p%g <= %g ms)\n", best, w.primary, lim.pct, lim.ms)
	return nil
}
