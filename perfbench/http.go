package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	cdb "repro"
	"repro/internal/server"
)

// inproc serves requests through the server's handler in-process: no
// sockets, one httptest recorder per request.
type inproc struct {
	srv *server.Server
	h   http.Handler
	dbg http.Handler
}

func newInproc(env *environment, cacheSize int) *inproc {
	srv := server.New(server.Config{
		PoolSize:       env.Pool,
		CacheSize:      cacheSize,
		DefaultWorkers: env.Workers,
	})
	return &inproc{srv: srv, h: srv.Handler(), dbg: srv.DebugHandler()}
}

func (c *inproc) close() { c.srv.Close() }

// do serves one request and returns its status and body.
func (c *inproc) do(ctx context.Context, method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// post serves one request that must answer 2xx, returning the body.
func (c *inproc) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	code, b := c.do(ctx, http.MethodPost, path, body)
	if code/100 != 2 {
		return nil, fmt.Errorf("POST %s: %d %s", path, code, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// register loads a program and returns its database id.
func (c *inproc) register(ctx context.Context, name, src string) (string, error) {
	b, err := c.post(ctx, "/v1/databases", mustJSON(map[string]any{"name": name, "source": src}))
	if err != nil {
		return "", err
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return "", err
	}
	return r.ID, nil
}

// costs reads the runtime's per-key cost table from /debug/costs.
func (c *inproc) costs() []cdb.ObservedCost {
	req := httptest.NewRequest(http.MethodGet, "/debug/costs", nil)
	rec := httptest.NewRecorder()
	c.dbg.ServeHTTP(rec, req)
	var cs []cdb.ObservedCost
	_ = json.Unmarshal(rec.Body.Bytes(), &cs) // an unreadable table reads as empty counters
	return cs
}

// metric sums the /metrics samples whose name and labels start with
// prefix.
func (c *inproc) metric(prefix string) float64 {
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	sum := 0.0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err == nil {
				sum += v
			}
		}
	}
	return sum
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built maps are marshalled
	}
	return b
}

// reply is the union of the response fields the checks read.
type reply struct {
	Mode         string      `json:"mode"`
	Cache        string      `json:"cache"`
	CanonicalKey string      `json:"canonical_key"`
	Volume       *float64    `json:"volume"`
	Method       string      `json:"method"`
	Points       [][]float64 `json:"points"`
	Plan         string      `json:"plan"`
	Source       string      `json:"source"`
	Tuples       int         `json:"tuples"`
	Spans        *spanJSON   `json:"spans"`
}

// spanJSON mirrors the server's span tree encoding.
type spanJSON struct {
	Name       string           `json:"name"`
	DurationUS float64          `json:"duration_us"`
	Counters   map[string]int64 `json:"counters"`
	Children   []spanJSON       `json:"children"`
}

func decodeReply(b []byte) (*reply, error) {
	var r reply
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// volatileKeys are response fields that legitimately differ between
// two identical requests: timing, trace ids and the cache label.
var volatileKeys = [][]byte{[]byte(`"elapsed_ms":`), []byte(`"trace_id":`), []byte(`"cache":`), []byte(`"coalesced":`)}

// digestBody hashes a response body with the volatile fields' values
// skipped, without allocating.
func digestBody(b []byte) uint64 {
	h := uint64(14695981039346656037)
	i := 0
	for i < len(b) {
		skipped := false
		if b[i] == '"' {
			for _, k := range volatileKeys {
				if bytes.HasPrefix(b[i:], k) {
					i += len(k)
					inStr := false
					for i < len(b) {
						c := b[i]
						if c == '"' {
							inStr = !inStr
						} else if !inStr && (c == ',' || c == '}') {
							break
						}
						i++
					}
					skipped = true
					break
				}
			}
		}
		if skipped {
			continue
		}
		h ^= uint64(b[i])
		h *= 1099511628211
		i++
	}
	return h
}

// httpRequest builds a request that posts body to path; verify decodes
// the reply and hands it to check.
func httpRequest(c *inproc, class, path string, body []byte, check func(*reply) error) request {
	// The traced spelling asks the server for its span tree: ?trace=1 on
	// the plain-text SQL endpoint, "trace": true in JSON bodies.
	tpath, tbody := path+"&trace=1", body
	if !strings.HasPrefix(path, "/v1/sql") {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			panic(err) // bodies are built by mustJSON
		}
		m["trace"] = true
		tpath, tbody = path, mustJSON(m)
	}
	return request{
		class: class,
		call: func(ctx context.Context, traced bool) (output, error) {
			p, b := path, body
			if traced {
				p, b = tpath, tbody
			}
			rb, err := c.post(ctx, p, b)
			if err != nil {
				return output{}, err
			}
			return output{points: countPoints(rb), digest: digestBody(rb), body: rb}, nil
		},
		verify: func(out *output) error {
			rp, err := decodeReply(out.body)
			if err != nil {
				return err
			}
			if out.points != len(rp.Points) {
				return fmt.Errorf("point count %d, decoded %d", out.points, len(rp.Points))
			}
			out.key, out.negative, out.median = rp.CanonicalKey, rp.Cache == "negative", rp.Method == "median"
			return check(rp)
		},
	}
}

var pointsKey = []byte(`"points":[`)

// countPoints counts the points of a reply body without decoding it:
// the number of "[" after the opening bracket of the "points" array.
func countPoints(b []byte) int {
	i := bytes.Index(b, pointsKey)
	if i < 0 {
		return 0
	}
	n := 0
	for j := i + len(pointsKey); j < len(b) && b[j] != '}'; j++ {
		if b[j] == '[' {
			n++
		}
		if b[j] == ']' && j+1 < len(b) && b[j+1] == ']' {
			return n
		}
	}
	return n
}
