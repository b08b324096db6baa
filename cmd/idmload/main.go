// Command idmload drives a running imemexd daemon with concurrent
// multi-tenant load: it seeds N tenants (one inline filesystem source
// each, carrying a tenant-unique marker word), then runs C clients per
// tenant issuing paginated queries, periodic syncs and checkpoints for
// the given duration, and reports throughput, latency, 429 backpressure
// counts and any isolation violations (a tenant seeing another
// tenant's marker).
//
// Usage:
//
//	idmload -addr localhost:7133 [-tenants 50] [-clients 4] [-duration 30s]
//	        [-token-file tokens.txt]
//
// The in-repo load/soak/chaos harness lives in internal/server's tests
// (make load-smoke); idmload is the out-of-process flavor for hammering
// a real deployment.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

type counters struct {
	requests atomic.Int64
	rows     atomic.Int64
	throttle atomic.Int64
	errors   atomic.Int64
	leaks    atomic.Int64
	totalNs  atomic.Int64
}

func main() {
	addr := flag.String("addr", "localhost:7133", "imemexd address")
	tenants := flag.Int("tenants", 50, "number of tenants")
	clients := flag.Int("clients", 4, "concurrent clients per tenant")
	duration := flag.Duration("duration", 30*time.Second, "load duration")
	tokenFile := flag.String("token-file", "", "optional tenant:token file (same format as imemexd -tokens)")
	flag.Parse()

	tokens := map[string]string{}
	if *tokenFile != "" {
		b, err := os.ReadFile(*tokenFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, line := range bytes.Split(b, []byte("\n")) {
			if t, tok, ok := bytes.Cut(bytes.TrimSpace(line), []byte(":")); ok {
				tokens[string(t)] = string(tok)
			}
		}
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}
	var c counters

	fmt.Fprintf(os.Stderr, "seeding %d tenants...\n", *tenants)
	var wg sync.WaitGroup
	for i := 0; i < *tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant%03d", i)
			body := map[string]any{
				"id": "docs",
				"files": map[string]string{
					"/docs/a.txt": fmt.Sprintf("alpha document for marker%03d", i),
					"/docs/b.txt": fmt.Sprintf("beta notes with marker%03d inside", i),
					"/docs/c.txt": fmt.Sprintf("gamma report marker%03d edition", i),
				},
				"sync": true,
			}
			if _, _, err := call(client, tokens, base, name, "POST", "/sources", body, &c); err != nil {
				fmt.Fprintf(os.Stderr, "seed %s: %v\n", name, err)
			}
		}(i)
	}
	wg.Wait()

	fmt.Fprintf(os.Stderr, "running %d×%d clients for %v...\n", *tenants, *clients, *duration)
	deadline := time.Now().Add(*duration)
	for i := 0; i < *tenants; i++ {
		for j := 0; j < *clients; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				name := fmt.Sprintf("tenant%03d", i)
				marker := fmt.Sprintf("marker%03d", i)
				other := fmt.Sprintf("marker%03d", (i+1)%*tenants)
				for k := 0; time.Now().Before(deadline); k++ {
					switch k % 8 {
					case 6: // cross-tenant probe: must see nothing
						_, rows, err := call(client, tokens, base, name, "POST", "/query",
							map[string]any{"q": fmt.Sprintf("%q", other)}, &c)
						if err == nil && rows > 0 {
							c.leaks.Add(1)
						}
					case 7:
						call(client, tokens, base, name, "POST", "/checkpoint", map[string]any{}, &c)
					default:
						cursor := ""
						for {
							body := map[string]any{"q": fmt.Sprintf("%q", marker), "limit": 2}
							if cursor != "" {
								body["cursor"] = cursor
							}
							next, _, err := call(client, tokens, base, name, "POST", "/query", body, &c)
							if err != nil || next == "" {
								break
							}
							cursor = next
						}
					}
				}
			}(i, j)
		}
	}
	wg.Wait()

	elapsed := duration.Seconds()
	n := c.requests.Load()
	fmt.Printf("requests   %d (%.0f/s)\n", n, float64(n)/elapsed)
	fmt.Printf("rows       %d\n", c.rows.Load())
	fmt.Printf("throttled  %d (429 backpressure)\n", c.throttle.Load())
	fmt.Printf("errors     %d\n", c.errors.Load())
	fmt.Printf("leaks      %d (cross-tenant rows — MUST be 0)\n", c.leaks.Load())
	if n > 0 {
		fmt.Printf("mean lat   %v\n", time.Duration(c.totalNs.Load()/n).Round(time.Microsecond))
	}
	if c.leaks.Load() > 0 {
		os.Exit(1)
	}
}

// call issues one tenant API request, retrying 429s once after the
// advertised Retry-After. Returns the next_cursor and row count for
// query responses.
func call(client *http.Client, tokens map[string]string, base, tenant, method, path string, body any, c *counters) (next string, rows int, err error) {
	b, _ := json.Marshal(body)
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, base+"/v1/t/"+tenant+path, bytes.NewReader(b))
		if err != nil {
			return "", 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if tok := tokens[tenant]; tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		start := time.Now()
		resp, err := client.Do(req)
		c.requests.Add(1)
		c.totalNs.Add(int64(time.Since(start)))
		if err != nil {
			c.errors.Add(1)
			return "", 0, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c.throttle.Add(1)
			if attempt < 1 {
				time.Sleep(time.Second)
				continue
			}
			return "", 0, nil
		}
		var out struct {
			NextCursor string            `json:"next_cursor"`
			Rows       []json.RawMessage `json:"rows"`
			Error      string            `json:"error"`
		}
		dec := json.NewDecoder(resp.Body)
		decErr := dec.Decode(&out)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			c.errors.Add(1)
			return "", 0, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, out.Error)
		}
		if decErr != nil {
			c.errors.Add(1)
			return "", 0, decErr
		}
		c.rows.Add(int64(len(out.Rows)))
		return out.NextCursor, len(out.Rows), nil
	}
}
