package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// api wraps an httptest server over a fresh manager for endpoint tests.
type api struct {
	t   *testing.T
	srv *httptest.Server
}

func newAPI(t *testing.T, opts Options) *api {
	t.Helper()
	m := New(opts)
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandlerWith(m, nil))
	t.Cleanup(srv.Close)
	return &api{t: t, srv: srv}
}

// do issues a request and decodes the JSON response into out (if non-nil),
// returning the status code and raw body.
func (a *api) do(method, path string, body any, out any) (int, []byte) {
	a.t.Helper()
	var reqBody *bytes.Buffer = bytes.NewBuffer(nil)
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			a.t.Fatalf("marshal body: %v", err)
		}
		reqBody = bytes.NewBuffer(data)
	}
	req, err := http.NewRequest(method, a.srv.URL+path, reqBody)
	if err != nil {
		a.t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			a.t.Fatalf("%s %s: decode %q: %v", method, path, buf.String(), err)
		}
	}
	return resp.StatusCode, buf.Bytes()
}

// waitDone polls the job endpoint until the job settles.
func (a *api) waitDone(id string, want State) View {
	a.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v View
		status, _ := a.do("GET", "/jobs/"+id, nil, &v)
		if status != http.StatusOK {
			a.t.Fatalf("GET /jobs/%s → %d", id, status)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			a.t.Fatalf("job %s settled as %s (err %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.t.Fatalf("job %s never reached %s", id, want)
	return View{}
}

func TestHealthz(t *testing.T) {
	a := newAPI(t, Options{Workers: 1})
	var body map[string]string
	if status, _ := a.do("GET", "/healthz", nil, &body); status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, body)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	a := newAPI(t, Options{Workers: 1})
	var infos []ExperimentInfo
	if status, _ := a.do("GET", "/experiments", nil, &infos); status != http.StatusOK {
		t.Fatalf("GET /experiments → %d", status)
	}
	if len(infos) != 18 || infos[0].ID != "E1" || infos[17].ID != "E18" {
		t.Fatalf("registry metadata wrong: %+v", infos)
	}
	var one ExperimentInfo
	if status, _ := a.do("GET", "/experiments/e5", nil, &one); status != http.StatusOK || one.ID != "E5" {
		t.Fatalf("GET /experiments/e5: %d %+v", status, one)
	}
	if status, _ := a.do("GET", "/experiments/E99", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET /experiments/E99 → %d, want 404", status)
	}
}

// TestEndToEndCachedResubmit is the acceptance scenario: submit the same E1
// job twice over HTTP; both results are byte-identical JSON and the second
// is served from cache, observable via the stats hit counter.
func TestEndToEndCachedResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real driver")
	}
	a := newAPI(t, Options{Workers: 2})
	req := Request{Experiment: "E1", Seed: 2014, Quick: true}

	var first View
	status, _ := a.do("POST", "/jobs", req, &first)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs → %d, want 202", status)
	}
	done := a.waitDone(first.ID, StateDone)
	if done.FromCache || done.Trials == 0 {
		t.Fatalf("first run looks wrong: %+v", done)
	}
	_, result1 := a.do("GET", "/jobs/"+first.ID+"/result?format=json", nil, nil)

	var second View
	status, _ = a.do("POST", "/jobs", req, &second)
	if status != http.StatusOK {
		t.Fatalf("cached POST /jobs → %d, want 200", status)
	}
	if second.State != StateDone || !second.FromCache {
		t.Fatalf("second submit not from cache: %+v", second)
	}
	_, result2 := a.do("GET", "/jobs/"+second.ID+"/result?format=json", nil, nil)
	if !bytes.Equal(result1, result2) {
		t.Fatal("cached result differs from computed result")
	}

	var stats Stats
	a.do("GET", "/stats", nil, &stats)
	if stats.CacheHits != 1 || stats.JobsFromCache != 1 || stats.JobsSubmitted != 2 {
		t.Fatalf("stats after resubmit: %+v", stats)
	}

	// CSV and Markdown renderings serve with their content types.
	for format, wantType := range map[string]string{"csv": "text/csv", "md": "text/markdown"} {
		resp, err := http.Get(a.srv.URL + "/jobs/" + first.ID + "/result?format=" + format)
		if err != nil {
			t.Fatalf("GET result %s: %v", format, err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, wantType) {
			t.Fatalf("format=%s → %d %s", format, resp.StatusCode, ct)
		}
	}
	if status, _ := a.do("GET", "/jobs/"+first.ID+"/result?format=xml", nil, nil); status != http.StatusBadRequest {
		t.Fatalf("format=xml → %d, want 400", status)
	}
}

// TestEndToEndCancel cancels an in-flight full-scale job via the API.
func TestEndToEndCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real driver")
	}
	a := newAPI(t, Options{Workers: 1})
	// Full-scale E1 takes long enough to catch mid-flight at any CI speed.
	var v View
	status, _ := a.do("POST", "/jobs", Request{Experiment: "E1", Seed: 1, Quick: false}, &v)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs → %d", status)
	}
	var cancelled View
	status, body := a.do("POST", "/jobs/"+v.ID+"/cancel", nil, &cancelled)
	if status != http.StatusOK {
		t.Fatalf("cancel → %d %s", status, body)
	}
	final := a.waitDone(v.ID, StateCancelled)
	if final.State != StateCancelled {
		t.Fatalf("job not cancelled: %+v", final)
	}
	if status, _ := a.do("GET", "/jobs/"+v.ID+"/result", nil, nil); status != http.StatusConflict {
		t.Fatalf("result of cancelled job → %d, want 409", status)
	}
	var stats Stats
	a.do("GET", "/stats", nil, &stats)
	if stats.JobsCancelled != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestJobEndpointErrors(t *testing.T) {
	a := newAPI(t, Options{Workers: 1})
	if status, _ := a.do("GET", "/jobs/nope", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET missing job → %d", status)
	}
	if status, _ := a.do("POST", "/jobs/nope/cancel", nil, nil); status != http.StatusNotFound {
		t.Fatalf("cancel missing job → %d", status)
	}
	if status, _ := a.do("POST", "/jobs", map[string]any{"experiment": "E99"}, nil); status != http.StatusBadRequest {
		t.Fatalf("submit unknown experiment → %d", status)
	}
	req, _ := http.NewRequest("POST", a.srv.URL+"/jobs", strings.NewReader("{not json"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("bad body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body → %d", resp.StatusCode)
	}
}

func TestJobsListEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real drivers")
	}
	a := newAPI(t, Options{Workers: 2})
	for seed := 0; seed < 3; seed++ {
		var v View
		status, _ := a.do("POST", "/jobs",
			Request{Experiment: "E9", Seed: uint64(seed), Quick: true}, &v)
		if status != http.StatusAccepted {
			t.Fatalf("POST /jobs → %d", status)
		}
		a.waitDone(v.ID, StateDone)
	}
	var views []View
	if status, _ := a.do("GET", "/jobs", nil, &views); status != http.StatusOK || len(views) != 3 {
		t.Fatalf("GET /jobs: %d, %d entries", 0, len(views))
	}
	for i, v := range views {
		if v.ID != fmt.Sprintf("j%d", i+1) {
			t.Fatalf("jobs out of order: %+v", views)
		}
	}
}
