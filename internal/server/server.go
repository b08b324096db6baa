// Package server is imemexd: a multi-tenant HTTP/JSON daemon hosting
// many isolated personal dataspaces. Each tenant is a full idm.System
// — its own data directory, catalog, indexes and WAL under
// Root/<tenant> — opened lazily on first request and LRU-evicted under
// a configurable open-tenant cap. Requests authenticate with a
// per-tenant bearer token, are admission-controlled by a global
// in-flight cap and per-tenant query slots (saturation answers 429
// with Retry-After, never queues unboundedly), and large results page
// through opaque resumable cursors over the facade's stable key order
// (cursor.go).
// The obs debug surface (/debug/metrics, /debug/metrics/prom,
// /debug/pprof) is mounted over the server's own registry, which
// carries the srv_* series. See docs/SERVER.md.
package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	pathpkg "path"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	idm "repro"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Quota bounds one tenant's resource use.
type Quota struct {
	// MaxSources caps registered sources per tenant (default 16).
	MaxSources int
	// MaxResultRows caps the query page size (default 1000); requests
	// asking for more are clamped, larger results page via cursors.
	MaxResultRows int
	// MaxConcurrentQueries caps in-flight queries per tenant (default
	// 4); excess queries get 429 + Retry-After.
	MaxConcurrentQueries int
}

// Config tunes a Server.
type Config struct {
	// Root is the data root; tenant t lives in Root/t.
	Root string
	// Fsync selects the per-tenant WAL flush policy.
	Fsync idm.SyncPolicy
	// MaxOpenTenants caps concurrently open tenant Systems; the least
	// recently used idle tenant is evicted (cleanly closed) to admit a
	// new one. Default 32.
	MaxOpenTenants int
	// MaxConcurrent caps in-flight /v1 requests across all tenants
	// (global backpressure; default 256). Excess requests get 429.
	MaxConcurrent int
	// Quota is the per-tenant resource policy (zero fields take
	// defaults).
	Quota Quota
	// Tokens maps tenant name → bearer token. nil disables auth (every
	// tenant name is open); non-nil requires a matching token and
	// rejects tenants without one.
	Tokens map[string]string
	// TenantParallelism sets each tenant System's per-query worker
	// count (default 1: serial per query, concurrent across queries).
	TenantParallelism int
	// Metrics receives the srv_* series and backs /debug; nil creates
	// a fresh registry.
	Metrics *obs.Registry
	// Faults, when set, is handed to every tenant System's storage
	// layer — the chaos harness's hook. Testing only.
	Faults *fault.Injector
	// Now supplies the tenants' clock (default time.Now).
	Now func() time.Time
}

// serverMetrics bundles the daemon's srv_* instruments.
type serverMetrics struct {
	requests        *obs.Counter
	throttled       *obs.Counter
	unauthorized    *obs.Counter
	queries         *obs.Counter
	queryNs         *obs.Histogram
	tenantsOpen     *obs.Gauge
	tenantOpens     *obs.Counter
	tenantEvictions *obs.Counter
	tenantCrashes   *obs.Counter
}

// Server is the imemexd daemon: an http.Handler plus the tenant table.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	met     serverMetrics
	tenants *tenantTable
	sem     chan struct{}
	mux     *http.ServeMux
	closed  atomic.Bool
	start   time.Time

	// Serve's socket bounds (readHeaderTimeout, idleTimeout); tests
	// lower them.
	readHeaderTimeout, idleTimeout time.Duration
}

// Socket bounds for Serve: a client that has not finished its request
// headers, or leaves a keep-alive connection idle, this long is
// disconnected and gives back its goroutine and file descriptor.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// New builds a Server over cfg.Root (created if missing).
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, errors.New("server: Config.Root is required")
	}
	if cfg.MaxOpenTenants <= 0 {
		cfg.MaxOpenTenants = 32
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 256
	}
	if cfg.Quota.MaxSources <= 0 {
		cfg.Quota.MaxSources = 16
	}
	if cfg.Quota.MaxResultRows <= 0 {
		cfg.Quota.MaxResultRows = 1000
	}
	if cfg.Quota.MaxConcurrentQueries <= 0 {
		cfg.Quota.MaxConcurrentQueries = 4
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		metrics: reg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		start:   time.Now(),

		readHeaderTimeout: readHeaderTimeout,
		idleTimeout:       idleTimeout,
	}
	s.met = serverMetrics{
		requests:        reg.Counter("srv_requests_total"),
		throttled:       reg.Counter("srv_throttled_total"),
		unauthorized:    reg.Counter("srv_unauthorized_total"),
		queries:         reg.Counter("srv_queries_total"),
		queryNs:         reg.Histogram("srv_query_ns", nil),
		tenantsOpen:     reg.Gauge("srv_tenants_open"),
		tenantOpens:     reg.Counter("srv_tenant_opens_total"),
		tenantEvictions: reg.Counter("srv_tenant_evictions_total"),
		tenantCrashes:   reg.Counter("srv_tenant_crashes_total"),
	}
	s.tenants = newTenantTable(s)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("/debug/", obs.HandlerWith(reg, nil))
	mux.HandleFunc("POST /v1/t/{tenant}/query", s.tenantHandler(s.handleQuery))
	mux.HandleFunc("POST /v1/t/{tenant}/sync", s.tenantHandler(s.handleSync))
	mux.HandleFunc("POST /v1/t/{tenant}/checkpoint", s.tenantHandler(s.handleCheckpoint))
	mux.HandleFunc("GET /v1/t/{tenant}/digest", s.tenantHandler(s.handleDigest))
	mux.HandleFunc("GET /v1/t/{tenant}/sources", s.tenantHandler(s.handleSourcesList))
	mux.HandleFunc("POST /v1/t/{tenant}/sources", s.tenantHandler(s.handleSourceAdd))
	mux.HandleFunc("DELETE /v1/t/{tenant}/sources/{id}", s.tenantHandler(s.handleSourceRemove))
	mux.HandleFunc("POST /v1/t/{tenant}/evict", s.handleEvict)
	s.mux = mux
	return s, nil
}

// Metrics returns the server's registry (srv_* series plus whatever
// the caller shares into it).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// OpenTenants reports the number of currently open tenant Systems.
func (s *Server) OpenTenants() int { return s.tenants.openCount() }

// Close stops admitting requests and cleanly closes every open tenant
// (flushing their stores and releasing their locks). Idempotent.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.tenants.closeAll()
	return nil
}

// Serve binds addr (":0" picks a port) and serves in the background;
// returns the bound address and a shutdown func that also closes every
// tenant.
func (s *Server) Serve(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s, ReadHeaderTimeout: s.readHeaderTimeout, IdleTimeout: s.idleTimeout}
	go hs.Serve(ln)
	return ln.Addr().String(), func() {
		hs.Close()
		s.Close()
	}, nil
}

// ServeHTTP dispatches to the mux behind a closed-check.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.met.requests.Inc()
	s.mux.ServeHTTP(w, r)
}

// --- middleware -------------------------------------------------------

// tenantHandler wraps h with tenant-name validation, bearer auth,
// global admission control and tenant acquire/release.
func (s *Server) tenantHandler(h func(http.ResponseWriter, *http.Request, *entry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		if !validTenantName(name) {
			writeErr(w, http.StatusBadRequest, "invalid tenant name")
			return
		}
		if !s.authorize(w, r, name) {
			return
		}
		// Global admission: never queue; saturated means 429 now.
		select {
		case s.sem <- struct{}{}:
		default:
			s.throttle(w, "server at capacity")
			return
		}
		defer func() { <-s.sem }()
		e, err := s.tenants.acquire(name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		defer s.tenants.release(e)
		e.requests.Inc()
		h(w, r, e)
	}
}

// authorize enforces the per-tenant bearer token; with no token table
// the server is open. Writes the 401 itself when rejecting.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request, tenant string) bool {
	if s.cfg.Tokens == nil {
		return true
	}
	want, ok := s.cfg.Tokens[tenant]
	tok, okHdr := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	// Compare even for unknown tenants so the timing does not
	// distinguish "no such tenant" from "wrong token".
	match := subtle.ConstantTimeCompare([]byte(tok), []byte(want)) == 1
	if !ok || !okHdr || !match {
		s.met.unauthorized.Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="imemexd"`)
		writeErr(w, http.StatusUnauthorized, "missing or invalid bearer token")
		return false
	}
	return true
}

// throttle answers backpressure/quota saturation: always 429 with a
// Retry-After so well-behaved clients back off instead of erroring.
func (s *Server) throttle(w http.ResponseWriter, msg string) {
	s.met.throttled.Inc()
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusTooManyRequests, msg)
}

// crashed checks an error from a tenant operation for a storage crash
// and, when found, dooms the tenant: the next request reopens the
// directory and recovers. Reports whether it handled the error.
func (s *Server) crashed(e *entry, err error) bool {
	if err == nil || !errors.Is(err, store.ErrCrashed) {
		return false
	}
	s.met.tenantCrashes.Inc()
	s.tenants.doom(e.name)
	return true
}

// --- wire types -------------------------------------------------------

type queryRequest struct {
	// Q is the iQL query text.
	Q string `json:"q"`
	// Cursor resumes a previous page (opaque, from next_cursor).
	Cursor string `json:"cursor,omitempty"`
	// Limit is the requested page size (clamped to the tenant quota).
	Limit int `json:"limit,omitempty"`
}

type sourceRequest struct {
	// ID names the source (fs type; the dataset type uses fixed ids).
	ID string `json:"id"`
	// Type is "fs" (default; inline files) or "dataset" (the synthetic
	// paper-shaped dataspace: filesystem+email+rss+reldb).
	Type string `json:"type,omitempty"`
	// Files maps path → content for fs sources.
	Files map[string]string `json:"files,omitempty"`
	// Scale/Seed tune dataset sources.
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Sync triggers an index sync after adding.
	Sync bool `json:"sync,omitempty"`
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"open_tenants": s.tenants.openCount(),
		"uptime_ms":    time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, e *entry) {
	// The per-tenant query slot is taken before the body is read: a
	// slow client streaming its request occupies its own tenant's
	// slots (and trips that tenant's 429), not the whole server.
	select {
	case e.qsem <- struct{}{}:
	default:
		s.throttle(w, "tenant query limit reached")
		return
	}
	defer func() { <-e.qsem }()

	var req queryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Q == "" {
		writeErr(w, http.StatusBadRequest, "q is required")
		return
	}
	qhash := queryHash(req.Q)
	var after []idm.OID
	if req.Cursor != "" {
		c, err := decodeCursor(req.Cursor)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		if c.Q != qhash {
			writeErr(w, http.StatusBadRequest, "cursor belongs to a different query")
			return
		}
		after = c.Last
	}
	limit := req.Limit
	if limit <= 0 || limit > s.cfg.Quota.MaxResultRows {
		limit = s.cfg.Quota.MaxResultRows
	}

	start := time.Now()
	page, err := e.sys.QueryPage(req.Q, after, limit)
	s.met.queries.Inc()
	s.met.queryNs.ObserveSince(start)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	var next string
	if page.Next != nil {
		next = encodeCursor(qhash, page.Next)
	}
	buf := bodyPool.Get().(*[]byte)
	*buf = appendQueryResponse((*buf)[:0], page, next)
	writeBody(w, http.StatusOK, *buf)
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request, e *entry) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	start := time.Now()
	rep, err := e.sys.Index()
	if err != nil {
		if s.crashed(e, err) {
			writeErr(w, http.StatusInternalServerError,
				"tenant storage crashed during sync; it will recover on the next request")
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sources":    len(rep.Timings),
		"views":      rep.TotalViews(),
		"elapsed_ms": time.Since(start).Milliseconds(),
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, e *entry) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.sys.Checkpoint(); err != nil {
		if s.crashed(e, err) {
			writeErr(w, http.StatusInternalServerError,
				"tenant storage crashed during checkpoint; it will recover on the next request")
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"digest": e.sys.StateDigest()})
}

func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request, e *entry) {
	writeJSON(w, http.StatusOK, map[string]any{
		"digest": e.sys.StateDigest(),
		"views":  e.sys.Count(),
	})
}

func (s *Server) handleSourcesList(w http.ResponseWriter, r *http.Request, e *entry) {
	srcs := e.sys.Sources()
	if srcs == nil {
		srcs = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sources": srcs})
}

func (s *Server) handleSourceAdd(w http.ResponseWriter, r *http.Request, e *entry) {
	var req sourceRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	have := len(e.sys.Sources())
	switch req.Type {
	case "", "fs":
		if req.ID == "" {
			writeErr(w, http.StatusBadRequest, "id is required")
			return
		}
		// A duplicate id is a conflict, not a quota trip.
		for _, id := range e.sys.Sources() {
			if id == req.ID {
				writeErr(w, http.StatusConflict, fmt.Sprintf("source %q already registered", req.ID))
				return
			}
		}
		if have+1 > s.cfg.Quota.MaxSources {
			s.throttle(w, fmt.Sprintf("source quota reached (%d)", s.cfg.Quota.MaxSources))
			return
		}
		fs := idm.NewFileSystem()
		for path, content := range req.Files {
			if dir := pathpkg.Dir(path); dir != "/" && dir != "." {
				if _, err := fs.MkdirAll(dir); err != nil {
					writeErr(w, http.StatusBadRequest, fmt.Sprintf("folder %s: %v", dir, err))
					return
				}
			}
			if _, err := fs.WriteFile(path, []byte(content)); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Sprintf("file %s: %v", path, err))
				return
			}
		}
		if err := e.sys.AddFileSystem(req.ID, fs); err != nil {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
	case "dataset":
		if have+4 > s.cfg.Quota.MaxSources {
			s.throttle(w, fmt.Sprintf("source quota reached (%d)", s.cfg.Quota.MaxSources))
			return
		}
		scale := req.Scale
		if scale <= 0 {
			scale = 0.01
		}
		data := idm.GenerateDataset(idm.DatasetConfig{Scale: scale, Seed: req.Seed})
		if err := e.sys.AddDataset(data); err != nil {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown source type %q (fs|dataset)", req.Type))
		return
	}
	if req.Sync {
		if _, err := e.sys.Index(); err != nil {
			if s.crashed(e, err) {
				writeErr(w, http.StatusInternalServerError,
					"tenant storage crashed during sync; it will recover on the next request")
				return
			}
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sources": e.sys.Sources()})
}

func (s *Server) handleSourceRemove(w http.ResponseWriter, r *http.Request, e *entry) {
	id := r.PathValue("id")
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if err := e.sys.RemoveSource(id); err != nil {
		if s.crashed(e, err) {
			writeErr(w, http.StatusInternalServerError,
				"tenant storage crashed during source removal; it will recover on the next request")
			return
		}
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": id})
}

// handleEvict force-evicts a tenant without opening it: idle tenants
// close immediately, busy ones drain first (the chaos lane's
// mid-request eviction). Deliberately NOT behind acquire — eviction of
// a closed tenant must not open it.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		writeErr(w, http.StatusBadRequest, "invalid tenant name")
		return
	}
	if !s.authorize(w, r, name) {
		return
	}
	wasOpen, pending := s.tenants.doom(name)
	if wasOpen && !pending {
		s.met.tenantEvictions.Inc()
	}
	writeJSON(w, http.StatusOK, map[string]any{"was_open": wasOpen, "draining": pending})
}

// --- JSON helpers -----------------------------------------------------

// maxBodyBytes bounds request bodies; inline fs sources fit well
// within it.
const maxBodyBytes = 8 << 20

// decodeJSON strictly decodes the request body into v (unknown fields
// and trailing garbage are errors — the fuzz target beats on this
// path).
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

// writeJSON answers with v encoded as encoding/json's Encoder would
// write it. v is always a map of plain values, which cannot fail to
// marshal.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, _ := json.Marshal(v)
	writeBody(w, code, append(b, '\n'))
}

// writeBody sends body as the whole response in one Write under its
// Content-Length, so no response is chunked.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
