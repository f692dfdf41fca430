package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/qindex"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// queryFixture builds a small deterministic network and an API serving it.
func queryFixture(t *testing.T, mode qindex.Mode) (*api, *temporal.Network) {
	t.Helper()
	g := graph.Grid(4, 4)
	stream := rng.New(77)
	sets := make([][]int, g.M())
	for e := range sets {
		sets[e] = []int{1 + stream.Intn(12), 1 + stream.Intn(12)}
	}
	net := temporal.MustNew(g, 12, temporal.LabelingFromSets(sets))
	m := New(Options{Workers: 1})
	t.Cleanup(m.Close)
	qe := NewQueryEngine(qindex.New(net, qindex.Options{Mode: mode}))
	qe.MaxBatch = 8
	qe.MaxBody = 512
	srv := httptest.NewServer(NewHandlerWith(m, qe))
	t.Cleanup(srv.Close)
	return &api{t: t, srv: srv}, net
}

// TestQueryGet pins the single-query endpoint against the kernel ground
// truth, including the restricted start, the journey rendering, and an
// unreachable pair.
func TestQueryGet(t *testing.T) {
	a, net := queryFixture(t, qindex.ModeFull)
	truth := make([]int32, 16)
	for _, start := range []int32{1, 5} {
		for s := 0; s < 16; s++ {
			net.EarliestArrivalsFromInto(s, start, truth)
			for v := 0; v < 16; v++ {
				var ans QueryAnswer
				code, body := a.do("GET", fmt.Sprintf("/query?src=%d&dst=%d&start=%d", s, v, start), nil, &ans)
				if code != http.StatusOK {
					t.Fatalf("GET query → %d: %s", code, body)
				}
				if want := truth[v]; want == temporal.Unreachable {
					if ans.Reached || ans.Arrival != -1 {
						t.Fatalf("(%d,%d,%d): want unreachable, got %+v", s, v, start, ans)
					}
				} else if !ans.Reached || ans.Arrival != want {
					t.Fatalf("(%d,%d,%d): arrival %d reached=%v, want %d", s, v, start, ans.Arrival, ans.Reached, want)
				}
			}
		}
	}
	// Journey rendering: pick the farthest vertex a journey from 0
	// actually reaches; its hops must chain src → dst and arrive at the
	// reported arrival.
	net.EarliestArrivalsInto(0, truth)
	target, best := -1, int32(-1)
	for v := 1; v < 16; v++ {
		if truth[v] != temporal.Unreachable && truth[v] > best {
			target, best = v, truth[v]
		}
	}
	if target < 0 {
		t.Fatal("fixture: nothing reachable from 0")
	}
	var ans QueryAnswer
	code, _ := a.do("GET", fmt.Sprintf("/query?src=0&dst=%d&journey=1", target), nil, &ans)
	if code != http.StatusOK || !ans.Reached {
		t.Fatalf("journey query → %d, %+v", code, ans)
	}
	if len(ans.Journey) == 0 {
		t.Fatal("journey requested but absent")
	}
	at := 0
	for _, h := range ans.Journey {
		if h.From != at {
			t.Fatalf("hop %+v leaves %d, at %d", h, h.From, at)
		}
		at = h.To
	}
	last := ans.Journey[len(ans.Journey)-1]
	if at != target || last.Label != ans.Arrival {
		t.Fatalf("journey ends at %d label %d, want %d at %d", at, last.Label, target, ans.Arrival)
	}
}

// TestQueryGetValidation covers the 400 paths of the single-query
// endpoint: missing, non-numeric and out-of-range parameters.
func TestQueryGetValidation(t *testing.T) {
	a, _ := queryFixture(t, qindex.ModeOff)
	for _, path := range []string{
		"/query",
		"/query?src=a&dst=1",
		"/query?src=1&dst=b",
		"/query?src=-1&dst=1",
		"/query?src=1&dst=16",
		"/query?src=1&dst=2&start=0",
		"/query?src=1&dst=2&start=-3",
		"/query?src=1&dst=2&start=x",
		"/query?src=1&dst=2&start=99999999999",
	} {
		var e struct {
			Error string `json:"error"`
		}
		code, body := a.do("GET", path, nil, &e)
		if code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("GET %s → %d (%s), want 400 with JSON error", path, code, body)
		}
	}
}

// TestQueryBatch pins batch answers against the ground truth and the
// request ordering.
func TestQueryBatch(t *testing.T) {
	a, net := queryFixture(t, qindex.ModeLRU)
	req := BatchRequest{Queries: []PointQuery{
		{Src: 0, Dst: 15},
		{Src: 3, Dst: 3, Start: 7},
		{Src: 15, Dst: 0, Start: 4},
	}}
	var resp BatchResponse
	code, body := a.do("POST", "/query", req, &resp)
	if code != http.StatusOK {
		t.Fatalf("POST /query → %d: %s", code, body)
	}
	if len(resp.Answers) != len(req.Queries) {
		t.Fatalf("%d answers for %d queries", len(resp.Answers), len(req.Queries))
	}
	truth := make([]int32, 16)
	for i, q := range req.Queries {
		start := q.Start
		if start <= 0 {
			start = 1
		}
		net.EarliestArrivalsFromInto(q.Src, start, truth)
		ans := resp.Answers[i]
		if want := truth[q.Dst]; want == temporal.Unreachable {
			if ans.Reached {
				t.Fatalf("answer %d: %+v, want unreachable", i, ans)
			}
		} else if !ans.Reached || ans.Arrival != want {
			t.Fatalf("answer %d: %+v, want arrival %d", i, ans, want)
		}
	}
}

// TestQueryBatchRejections covers the 400/413 contract of the batch
// endpoint: malformed JSON, empty and invalid queries → 400; an oversized
// body or query count → 413. Every rejection carries a JSON error body.
func TestQueryBatchRejections(t *testing.T) {
	a, _ := queryFixture(t, qindex.ModeLRU) // MaxBatch=8, MaxBody=512
	post := func(raw string) (int, string) {
		t.Helper()
		resp, err := http.Post(a.srv.URL+"/query", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	// errField decodes the conventional {"error": "..."} body.
	errField := func(body string) string {
		var e map[string]string
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("non-JSON error body %q", body)
		}
		return e["error"]
	}

	for _, raw := range []string{"", "{", `{"queries":"nope"}`, `{"queries":[]}`,
		`{"queries":[{"src":99,"dst":0}]}`} {
		code, body := post(raw)
		if code != http.StatusBadRequest {
			t.Errorf("POST %q → %d (%s), want 400", raw, code, body)
		} else if errField(body) == "" {
			t.Errorf("POST %q: empty error body", raw)
		}
	}

	// start ≤ 0 normalizes to 1 by contract rather than erroring.
	if code, body := post(`{"queries":[{"src":0,"dst":0,"start":-2}]}`); code != http.StatusOK {
		t.Errorf("start=-2 → %d (%s), want 200", code, body)
	}

	// Too many queries (9 > MaxBatch 8) → 413.
	big := `{"queries":[` + strings.Repeat(`{"src":0,"dst":1},`, 8) + `{"src":0,"dst":1}]}`
	if code, body := post(big); code != http.StatusRequestEntityTooLarge || errField(body) == "" {
		t.Errorf("oversized batch → %d (%s), want 413", code, body)
	}

	// Body over the 512-byte bound → 413.
	huge := `{"queries":[{"src":0,"dst":1}` + strings.Repeat(" ", 600) + `]}`
	if code, body := post(huge); code != http.StatusRequestEntityTooLarge || errField(body) == "" {
		t.Errorf("oversized body → %d (%s), want 413", code, body)
	}
}

// TestJobsBodyLimit pins the same 413 contract on the job submit
// endpoint, which shares decodeBody.
func TestJobsBodyLimit(t *testing.T) {
	a := newAPI(t, Options{Workers: 1})
	huge := `{"experiment":"E1","seed":1` + strings.Repeat(" ", DefaultMaxBodySize+10) + `}`
	resp, err := http.Post(a.srv.URL+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("non-JSON error body: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e["error"] == "" {
		t.Fatalf("oversized /jobs body → %d (%v), want 413", resp.StatusCode, e)
	}
}

// TestQueryStatsEndpoint checks the snapshot shape and that serving
// traffic moves the index counters.
func TestQueryStatsEndpoint(t *testing.T) {
	a, _ := queryFixture(t, qindex.ModeFull)
	a.do("GET", "/query?src=0&dst=5", nil, nil)
	var st QueryStats
	code, body := a.do("GET", "/query/stats", nil, &st)
	if code != http.StatusOK {
		t.Fatalf("GET /query/stats → %d: %s", code, body)
	}
	if st.N != 16 || st.Lifetime != 12 || st.Index.Mode != "full" {
		t.Fatalf("stats %+v", st)
	}
	if st.Index.Hits == 0 || st.Index.ResidentRows != 16 || st.Index.ResidentBytes != 2*16*16 {
		t.Fatalf("index stats %+v", st.Index)
	}
}

// TestQueryEndpointsAbsentWithoutEngine: a handler built without a query
// engine must 404 the query surface.
func TestQueryEndpointsAbsentWithoutEngine(t *testing.T) {
	a := newAPI(t, Options{Workers: 1})
	code, _ := a.do("GET", "/query?src=0&dst=1", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET /query without engine → %d, want 404", code)
	}
}
