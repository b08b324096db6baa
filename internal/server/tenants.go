// Tenant lifecycle: one durable idm.System per tenant, opened lazily
// on first request and LRU-evicted under Config.MaxOpenTenants.
//
// Invariants the table maintains (the load/chaos harnesses beat on
// them):
//
//   - at most one open System per tenant name at a time — an eviction's
//     Close fully finishes (releasing the data-dir flock) before any
//     reopen of the same tenant starts;
//   - eviction only closes Systems with zero in-flight requests; a
//     forced eviction (admin endpoint, storage crash) marks the tenant
//     doomed and the last request out closes it;
//   - concurrent first requests for one tenant share a single open —
//     losers wait on the winner's ready channel.
package server

import (
	"container/list"
	"fmt"
	"path/filepath"
	"regexp"
	"sync"

	idm "repro"
	"repro/internal/obs"
)

// tenantNameRE is the allowed tenant-name shape: it is used as a
// directory name under Root, so it is locked down hard (no separators,
// no dots, no empties).
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

func validTenantName(s string) bool { return tenantNameRE.MatchString(s) }

// entry is one open (or opening, or draining) tenant.
type entry struct {
	name string

	// ready is closed once the open attempt finished; sys/err are
	// immutable afterwards.
	ready chan struct{}
	sys   *idm.System
	err   error

	// gone is closed once the entry is fully closed and its flock
	// released; acquire loops for the same name wait on it.
	gone chan struct{}

	// refs, doomed and elem are guarded by the table mutex.
	refs   int
	doomed bool
	elem   *list.Element

	// writeMu serializes mutations (sync, source add/remove,
	// checkpoint) per tenant; queries run concurrently.
	writeMu sync.Mutex
	// qsem bounds concurrent queries per tenant (admission control).
	qsem chan struct{}

	// requests counts this tenant's requests
	// (srv_tenant_<name>_requests_total).
	requests *obs.Counter
}

// tenantTable is the open-tenant registry: map + LRU list + in-flight
// close tracking.
type tenantTable struct {
	srv *Server

	mu      sync.Mutex
	open    map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	closing map[string]chan struct{}
}

func newTenantTable(srv *Server) *tenantTable {
	return &tenantTable{
		srv:     srv,
		open:    make(map[string]*entry),
		lru:     list.New(),
		closing: make(map[string]chan struct{}),
	}
}

// acquire returns the tenant's entry with one reference held, opening
// the System (and evicting LRU victims over the cap) when needed.
func (t *tenantTable) acquire(name string) (*entry, error) {
	for {
		t.mu.Lock()
		// A close of this tenant is in flight (eviction or drain):
		// wait for the flock to be released, then retry.
		if ch, ok := t.closing[name]; ok {
			t.mu.Unlock()
			<-ch
			continue
		}
		if e, ok := t.open[name]; ok {
			if e.doomed {
				// Marked for eviction: let it drain and reopen fresh.
				gone := e.gone
				t.mu.Unlock()
				<-gone
				continue
			}
			e.refs++
			t.lru.MoveToFront(e.elem)
			t.mu.Unlock()
			<-e.ready
			if e.err != nil {
				// The opener removed the entry already; our ref dies
				// with it.
				return nil, e.err
			}
			return e, nil
		}

		// Not open: make room, then open. Victims are closed outside
		// the lock (Close fsyncs); the closing map keeps their names
		// unreopenable until the flock is free.
		victims := t.evictLocked(t.srv.cfg.MaxOpenTenants - 1)
		e := &entry{
			name:  name,
			ready: make(chan struct{}),
			gone:  make(chan struct{}),
			refs:  1,
			qsem:  make(chan struct{}, t.srv.cfg.Quota.MaxConcurrentQueries),

			requests: t.srv.metrics.Counter("srv_tenant_" + name + "_requests_total"),
		}
		e.elem = t.lru.PushFront(e)
		t.open[name] = e
		t.srv.met.tenantsOpen.Set(int64(len(t.open)))
		t.mu.Unlock()

		for _, v := range victims {
			t.closeEntry(v)
		}

		e.sys, e.err = t.srv.openTenant(name)
		close(e.ready)
		if e.err != nil {
			t.mu.Lock()
			delete(t.open, name)
			t.lru.Remove(e.elem)
			t.srv.met.tenantsOpen.Set(int64(len(t.open)))
			t.mu.Unlock()
			close(e.gone)
			return nil, e.err
		}
		t.srv.met.tenantOpens.Inc()
		return e, nil
	}
}

// release drops one reference; the last reference out of a doomed
// entry closes it.
func (t *tenantTable) release(e *entry) {
	t.mu.Lock()
	e.refs--
	if e.refs == 0 && e.doomed {
		if cur, ok := t.open[e.name]; ok && cur == e {
			t.removeLocked(e)
			t.mu.Unlock()
			t.closeEntry(e)
			return
		}
	}
	t.mu.Unlock()
}

// doom marks a tenant for eviction: closed immediately when idle,
// otherwise by the last in-flight request. Reports whether the tenant
// was open and whether the close is still pending on active requests.
func (t *tenantTable) doom(name string) (wasOpen, pending bool) {
	t.mu.Lock()
	e, ok := t.open[name]
	if !ok {
		t.mu.Unlock()
		return false, false
	}
	e.doomed = true
	if e.refs > 0 {
		t.mu.Unlock()
		return true, true
	}
	t.removeLocked(e)
	t.mu.Unlock()
	t.closeEntry(e)
	return true, false
}

// evictLocked evicts least-recently-used idle entries until at most
// target remain open, returning the victims for the caller to close
// outside the lock. Busy entries (in-flight requests, opens in
// progress) are skipped: the cap is enforced against idle tenants, so
// a fully-busy table may transiently overshoot rather than fail or
// block requests.
func (t *tenantTable) evictLocked(target int) []*entry {
	if target < 0 {
		target = 0
	}
	var victims []*entry
	el := t.lru.Back()
	for el != nil && len(t.open) > target {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.refs == 0 && !e.doomed {
			e.doomed = true
			t.removeLocked(e)
			victims = append(victims, e)
			t.srv.met.tenantEvictions.Inc()
		}
		el = prev
	}
	return victims
}

// removeLocked unlinks e from the table and registers its in-flight
// close so acquires of the same name wait for the flock.
func (t *tenantTable) removeLocked(e *entry) {
	delete(t.open, e.name)
	t.lru.Remove(e.elem)
	t.closing[e.name] = e.gone
	t.srv.met.tenantsOpen.Set(int64(len(t.open)))
}

// closeEntry closes a removed entry's System and publishes completion.
// Safe on entries whose store already crashed: System.Close is
// idempotent and returns ErrClosed/nil rather than panicking.
func (t *tenantTable) closeEntry(e *entry) {
	if e.sys != nil {
		e.sys.Close()
	}
	t.mu.Lock()
	delete(t.closing, e.name)
	t.mu.Unlock()
	close(e.gone)
}

// closeAll dooms every open tenant and waits until each has fully
// closed. Used by Server.Close for a clean daemon shutdown.
func (t *tenantTable) closeAll() {
	t.mu.Lock()
	var waits []chan struct{}
	var idle []*entry
	for _, e := range t.open {
		waits = append(waits, e.gone)
		if e.doomed {
			continue
		}
		e.doomed = true
		if e.refs == 0 {
			t.removeLocked(e)
			idle = append(idle, e)
		}
	}
	for _, ch := range t.closing {
		waits = append(waits, ch)
	}
	t.mu.Unlock()
	for _, e := range idle {
		t.closeEntry(e)
	}
	for _, ch := range waits {
		<-ch
	}
}

// openCount reports how many tenants are currently open.
func (t *tenantTable) openCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// openTenant opens (or recovers) one tenant's durable System rooted at
// Root/<name>. The store creates the directory and fsyncs Root, so a new
// tenant's name survives a power cut with its first records.
func (s *Server) openTenant(name string) (*idm.System, error) {
	dir := filepath.Join(s.cfg.Root, name)
	par := s.cfg.TenantParallelism
	if par <= 0 {
		// Per-query parallelism is counterproductive when many tenants
		// share the cores; serial per query, concurrent across queries.
		par = 1
	}
	sys, _, err := idm.OpenDurable(idm.Config{
		DataDir:      dir,
		Fsync:        s.cfg.Fsync,
		Faults:       s.cfg.Faults,
		Parallelism:  par,
		QueryLogSize: -1, // per-tenant query logs off; the server has srv_* metrics
		Now:          s.cfg.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", name, err)
	}
	return sys, nil
}
