// Command imemexd is the multi-tenant iMeMex dataspace daemon: an
// HTTP/JSON server hosting many isolated personal dataspaces, one
// durable idm.System per tenant under -root/<tenant>, lazily opened on
// first request and LRU-evicted under -max-open-tenants.
//
// Usage:
//
//	imemexd -root /var/lib/imemex [-addr :7133]
//	        [-fsync commit|always|never] [-max-open-tenants 32]
//	        [-max-concurrent 256] [-quota-sources 16] [-quota-rows 1000]
//	        [-quota-queries 4] [-tokens tokens.txt] [-tenant-parallelism 1]
//
// The API (see docs/SERVER.md):
//
//	GET    /healthz                       daemon health
//	POST   /v1/t/{tenant}/query          {"q","cursor","limit"} → rows + next_cursor
//	POST   /v1/t/{tenant}/sync           index every registered source
//	POST   /v1/t/{tenant}/checkpoint     compact WAL into a snapshot
//	GET    /v1/t/{tenant}/digest         durable-state digest
//	GET    /v1/t/{tenant}/sources        list sources
//	POST   /v1/t/{tenant}/sources       {"id","type","files",...} add a source
//	DELETE /v1/t/{tenant}/sources/{id}  remove a source
//	POST   /v1/t/{tenant}/evict          force-evict (drains in-flight work)
//	GET    /debug/...                     srv_* metrics, prom exposition, pprof
//
// -tokens enables bearer auth from a file of "tenant:token" lines
// (blank lines and #-comments ignored); without it the daemon is open
// — fine on localhost, not on a shared network.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	idm "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7133", "listen address")
	root := flag.String("root", "", "data root directory (required); tenant t lives in <root>/t")
	fsync := flag.String("fsync", "commit", "per-tenant WAL flush policy, commit|always|never")
	maxOpen := flag.Int("max-open-tenants", 32, "max concurrently open tenant systems (LRU-evicted beyond)")
	maxConc := flag.Int("max-concurrent", 256, "global in-flight request cap (429 beyond)")
	quotaSources := flag.Int("quota-sources", 16, "per-tenant source cap")
	quotaRows := flag.Int("quota-rows", 1000, "per-tenant query page-size cap")
	quotaQueries := flag.Int("quota-queries", 4, "per-tenant concurrent query cap (429 beyond)")
	tokensFile := flag.String("tokens", "", "bearer-token file of tenant:token lines; empty disables auth")
	parallelism := flag.Int("tenant-parallelism", 1, "per-query worker count inside each tenant")
	flag.Parse()

	if *root == "" {
		fmt.Fprintln(os.Stderr, "imemexd: -root is required")
		os.Exit(2)
	}
	cfg := server.Config{
		Root:              *root,
		MaxOpenTenants:    *maxOpen,
		MaxConcurrent:     *maxConc,
		TenantParallelism: *parallelism,
		Quota: server.Quota{
			MaxSources:           *quotaSources,
			MaxResultRows:        *quotaRows,
			MaxConcurrentQueries: *quotaQueries,
		},
	}
	var err error
	switch strings.ToLower(*fsync) {
	case "commit", "":
		cfg.Fsync = idm.SyncOnCommit
	case "always":
		cfg.Fsync = idm.SyncAlways
	case "never":
		cfg.Fsync = idm.SyncNever
	default:
		fmt.Fprintf(os.Stderr, "imemexd: unknown -fsync policy %q (commit|always|never)\n", *fsync)
		os.Exit(2)
	}
	if *tokensFile != "" {
		cfg.Tokens, err = loadTokens(*tokensFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imemexd: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "auth enabled: %d tenant token(s)\n", len(cfg.Tokens))
	} else {
		fmt.Fprintln(os.Stderr, "warning: no -tokens file; the daemon is open to any tenant name")
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bound, shutdown, err := srv.Serve(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "imemexd serving on http://%s (root %s, cap %d tenants)\n",
		bound, *root, *maxOpen)
	fmt.Fprintf(os.Stderr, "debug surface on http://%s/debug/\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down: draining requests and closing tenants...")
	shutdown()
	fmt.Fprintln(os.Stderr, "bye")
}

// loadTokens reads a tenant:token file. Lines are "tenant:token";
// blanks and #-comments are skipped.
func loadTokens(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		tenant, token, ok := strings.Cut(s, ":")
		if !ok || tenant == "" || token == "" {
			return nil, fmt.Errorf("%s:%d: want tenant:token, got %q", path, line, s)
		}
		out[tenant] = token
	}
	return out, sc.Err()
}
