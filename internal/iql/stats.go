package iql

import (
	"time"

	"repro/internal/obs"
)

// QueryStats is the per-query resource accounting the engine attaches
// to every Result: not just how long the query took, but what it cost —
// rows scanned by residual filters, index postings materialized, views
// expanded, the BFS frontier high-water mark — plus the planner's
// physical choices. The query log retains it for every completed query
// and EXPLAIN renders it as a final "stats" span.
type QueryStats struct {
	// ElapsedNs is the engine-side latency (parse + plan + eval) in
	// nanoseconds; the facade lifts it to end-to-end latency.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Rows is the result row count.
	Rows int64 `json:"rows"`
	// RowsScanned counts candidate views examined by residual filters,
	// including full catalog scans.
	RowsScanned int64 `json:"rows_scanned"`
	// PostingsRead counts index postings materialized from the name,
	// content, tuple and class indexes.
	PostingsRead int64 `json:"postings_read"`
	// ResidualFilters counts residual-filter stages that ran (the
	// planner elides index-covered ones).
	ResidualFilters int64 `json:"residual_filters"`
	// ViewsExpanded counts views touched during path expansion (the
	// §7.2 intermediate-result metric).
	ViewsExpanded int64 `json:"views_expanded"`
	// PeakFrontier is the largest expansion frontier any stage carried.
	PeakFrontier int64 `json:"peak_frontier"`
	// IndexAccesses counts index-backed candidate fetches.
	IndexAccesses int64 `json:"index_accesses"`
	// EstimatedRows is the planner's pre-execution bound.
	EstimatedRows int64 `json:"estimated_rows"`
	// ParallelStages / SerialStages count per-stage fan-out decisions.
	ParallelStages int64 `json:"parallel_stages"`
	SerialStages   int64 `json:"serial_stages"`
	// Strategy is the top-level physical strategy ("forward",
	// "backward", "single step", "predicate", "union", "join").
	Strategy string `json:"strategy"`
	// CacheHit marks results served from the facade's query cache (set
	// by the facade; always false engine-side).
	CacheHit bool `json:"cache_hit"`
}

// logRecord converts the stats into the obs query-log shape.
func (s QueryStats) logRecord() obs.QueryStatsRecord {
	return obs.QueryStatsRecord{
		RowsScanned:     s.RowsScanned,
		PostingsRead:    s.PostingsRead,
		ResidualFilters: s.ResidualFilters,
		ViewsExpanded:   s.ViewsExpanded,
		PeakFrontier:    s.PeakFrontier,
		IndexAccesses:   s.IndexAccesses,
		EstimatedRows:   s.EstimatedRows,
	}
}

// record appends one completed string-level query to the engine's query
// log (a no-op without one). Slow queries retain the full trace render:
// an already-traced run renders for free; an untraced one is
// re-evaluated once with tracing, doubling the cost of queries over the
// threshold — the threshold should sit well above healthy-traffic p99.
func (e *Engine) record(src string, res *Result, err error, elapsed time.Duration, trace *obs.Trace) {
	l := e.opts.QueryLog
	if l == nil {
		return
	}
	rec := obs.QueryRecord{Query: src, DurationNs: int64(elapsed)}
	if err != nil {
		rec.Error = err.Error()
	} else if res != nil {
		rec.Rows = int64(len(res.Rows))
		rec.Strategy = res.Stats.Strategy
		rec.Stale = len(res.Plan.StaleSources) > 0
		rec.Stats = res.Stats.logRecord()
	}
	if l.IsSlow(elapsed) {
		switch {
		case trace != nil:
			rec.Trace = trace.Render()
		case err == nil:
			tr := obs.NewTrace("query " + src)
			if _, rerr := e.query(src, tr); rerr == nil {
				tr.Finish()
				rec.Trace = tr.Render()
			}
		}
	}
	l.Record(rec)
}
