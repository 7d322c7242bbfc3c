package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/workloads"
)

const smallProg = `
var g; var flag; var data; var out;
func main() {
  cobegin {
    s1: g = 1;
    data = 42;
    flag = 1;
  } || {
    s2: g = 2;
    loop: while flag == 0 { skip; }
    s3: out = data;
  } coend
}
`

// longProg explores ~45k states (~0.5s sequential): long enough that a
// request can demonstrably be cancelled or coalesced mid-run, short
// enough for a bounded test.
func longProg() string { return lang.Format(workloads.Philosophers(5)) }

func newSvc(t *testing.T, workers int) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{Workers: workers})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, url string, req Request) (int, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func waitForServiceGoroutineBaseline(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), want)
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newSvc(t, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	if code, out := post(t, ts.URL, Request{Program: smallProg}); code != http.StatusOK {
		t.Fatalf("analyze: status %d (%+v)", code, out)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body metricsBody
	if err := json.NewDecoder(mresp.Body).Decode(&body); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if body.Service.Runs != 1 || body.Service.Requests != 1 {
		t.Fatalf("metrics service stats: %+v, want 1 run / 1 request", body.Service)
	}
	if body.Counters["states_unique"] == 0 {
		t.Fatalf("metrics counters missing engine activity: %v", body.Counters)
	}
}

// The acceptance criterion: a completed service run is bit-identical to
// the direct engine summary for the same (program, options) at 0, 1,
// and 4 workers.
func TestResponsesBitIdenticalToDirectRuns(t *testing.T) {
	prog, err := lang.Parse(smallProg)
	if err != nil {
		t.Fatal(err)
	}
	wantExplore := explore.Explore(prog, explore.Options{Reduction: explore.Stubborn, Coarsen: true}).String()
	wantAbstract := abssem.Analyze(prog, abssem.Options{Domain: absdom.SignDomain{}}).String()

	for _, workers := range []int{0, 1, 4} {
		_, ts := newSvc(t, workers)
		code, out := post(t, ts.URL, Request{
			Program: smallProg,
			Options: Options{Reduction: "stubborn", Coarsen: true},
		})
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status %d (%+v)", workers, code, out)
		}
		if out.Summary != wantExplore {
			t.Errorf("workers=%d: explore summary %q != direct %q", workers, out.Summary, wantExplore)
		}
		code, out = post(t, ts.URL, Request{
			Program:  smallProg,
			Analysis: "abstract",
			Options:  Options{Domain: "sign"},
		})
		if code != http.StatusOK {
			t.Fatalf("workers=%d: abstract status %d (%+v)", workers, code, out)
		}
		if out.Summary != wantAbstract {
			t.Errorf("workers=%d: abstract summary %q != direct %q", workers, out.Summary, wantAbstract)
		}
	}
}

func TestResultCache(t *testing.T) {
	svc, ts := newSvc(t, 0)
	req := Request{Program: smallProg, Options: Options{Outcomes: true}}
	_, first := post(t, ts.URL, req)
	if first.Cached {
		t.Fatal("first request reported Cached")
	}
	_, second := post(t, ts.URL, req)
	if !second.Cached {
		t.Fatal("identical second request missed the result cache")
	}
	if second.Summary != first.Summary || len(second.Outcomes) != len(first.Outcomes) {
		t.Fatalf("cached response diverged: %+v vs %+v", second, first)
	}
	// A different result-relevant option is a different key.
	_, third := post(t, ts.URL, Request{Program: smallProg, Options: Options{Reduction: "stubborn", Outcomes: true}})
	if third.Cached {
		t.Fatal("request under different options hit the cache")
	}
	st := svc.Stats()
	if st.Runs != 2 || st.CacheHits != 1 {
		t.Fatalf("stats after cache exercise: %+v, want 2 runs / 1 cache hit", st)
	}
}

func TestResultCacheEviction(t *testing.T) {
	svc := New(Config{CacheMax: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	second := `var g; func main() { g = 1; }`

	post(t, ts.URL, Request{Program: smallProg})
	post(t, ts.URL, Request{Program: second}) // bound 1: evicts smallProg
	if _, out := post(t, ts.URL, Request{Program: smallProg}); out.Cached {
		t.Fatal("evicted result was served from the cache")
	}
	st := svc.Stats()
	if st.CacheEvictions < 2 {
		t.Fatalf("stats: %+v, want >=2 evictions at CacheMax=1", st)
	}
	if st.CacheHits != 0 {
		t.Fatalf("stats: %+v, want 0 cache hits", st)
	}
}

// Program versions for the incremental (base-hash) request flow: v2
// α-renames a parameter of v1, v3 edits bump's body, v4 α-renames v3.
const (
	svcIncV1 = `
var g; var h;
func bump(x) { g = g + x; }
func poke() { h = h + 1; }
func main() {
  cobegin { bump(1); } || { poke(); } coend
  g = g + h;
}
`
	svcIncV2 = `
var g; var h;
func bump(y) { g = g + y; }
func poke() { h = h + 1; }
func main() {
  cobegin { bump(1); } || { poke(); } coend
  g = g + h;
}
`
	svcIncV3 = `
var g; var h;
func bump(y) { g = g + y + 1; }
func poke() { h = h + 1; }
func main() {
  cobegin { bump(1); } || { poke(); } coend
  g = g + h;
}
`
	svcIncV4 = `
var g; var h;
func bump(z) { g = g + z + 1; }
func poke() { h = h + 1; }
func main() {
  cobegin { bump(1); } || { poke(); } coend
  g = g + h;
}
`
)

// An abstract request carrying the previous version's program_hash runs
// through the incremental session: responses stay bit-identical to
// direct scratch runs while the analysis cache counters in /metrics show
// the session's choice (one miss for a real edit, one hit for an
// α-neutral resubmission that replays the previous result).
func TestIncrementalBaseRequests(t *testing.T) {
	svc, ts := newSvc(t, 0)

	scratch := func(src string) string {
		return abssem.Analyze(lang.MustParse(src), abssem.Options{}).String()
	}
	counters := func() map[string]int64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body metricsBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Counters
	}

	_, v1 := post(t, ts.URL, Request{Program: svcIncV1, Analysis: "abstract"})
	if v1.ProgramHash == "" {
		t.Fatalf("abstract response carries no program hash: %+v", v1)
	}
	if v1.Incremental {
		t.Fatal("base-less request flagged incremental")
	}

	// v2 (α-rename) opens the session; its run is the session's baseline.
	_, v2 := post(t, ts.URL, Request{Program: svcIncV2, Analysis: "abstract", Base: v1.ProgramHash})
	if !v2.Incremental {
		t.Fatalf("based request not routed through the incremental session: %+v", v2)
	}
	if v2.Summary != scratch(svcIncV2) {
		t.Fatalf("incremental v2 summary diverged from scratch:\n%s\nvs\n%s", v2.Summary, scratch(svcIncV2))
	}

	// v3 edits bump: the session runs the plain fixpoint, counting
	// exactly one miss.
	c := counters()
	_, v3 := post(t, ts.URL, Request{Program: svcIncV3, Analysis: "abstract", Base: v2.ProgramHash})
	if v3.Summary != scratch(svcIncV3) {
		t.Fatalf("incremental v3 summary diverged from scratch")
	}
	c3 := counters()
	if d := c3["analysis_cache_miss"] - c["analysis_cache_miss"]; d != 1 {
		t.Fatalf("edited re-analysis counted %d misses, want 1: %v", d, c3)
	}
	if d := c3["analysis_cache_hit"] - c["analysis_cache_hit"]; d != 0 {
		t.Fatalf("edited re-analysis counted %d hits, want 0: %v", d, c3)
	}

	// v4 α-renames v3: same program hash, so the whole previous result is
	// reused without re-running the fixpoint.
	_, v4 := post(t, ts.URL, Request{Program: svcIncV4, Analysis: "abstract", Base: v3.ProgramHash})
	if v4.Summary != scratch(svcIncV4) {
		t.Fatalf("incremental v4 summary diverged from scratch")
	}
	if c4 := counters(); c4["analysis_cache_hit"]-c3["analysis_cache_hit"] != 1 {
		t.Fatalf("α-neutral resubmission did not take the whole-program fast path: %v", c4)
	}

	st := svc.Stats()
	if st.IncrementalRuns != 3 {
		t.Fatalf("stats: %+v, want 3 incremental runs", st)
	}
}

// N identical concurrent requests share one engine run: every response
// carries the same summary, and the service performed exactly one run —
// the followers either attached to the in-flight run (coalesce hits) or,
// if they lost the race with completion, hit the result cache.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	svc, ts := newSvc(t, 2)
	prog := longProg()
	req := Request{Program: prog}

	leaderDone := make(chan Response, 1)
	go func() {
		_, out := post(t, ts.URL, req)
		leaderDone <- out
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const followers = 4
	outs := make([]Response, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i] = post(t, ts.URL, req)
		}(i)
	}
	wg.Wait()
	leader := <-leaderDone

	for i, out := range outs {
		if out.Summary != leader.Summary {
			t.Errorf("follower %d summary %q != leader %q", i, out.Summary, leader.Summary)
		}
	}
	st := svc.Stats()
	if st.Runs != 1 {
		t.Fatalf("5 identical requests caused %d engine runs, want exactly 1 (stats %+v)", st.Runs, st)
	}
	if st.CoalesceHits+st.CacheHits != followers {
		t.Fatalf("followers unaccounted for: %+v, want coalesce+cache = %d", st, followers)
	}
}

// A client disconnecting mid-run cancels the run within a bounded
// deadline once no other request is attached, with no goroutine leak.
func TestClientDisconnectCancelsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())

	body, _ := json.Marshal(Request{Program: longProg()})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	cancel() // client walks away
	if err := <-errc; err == nil {
		t.Fatal("expected the client request to fail after cancellation")
	}
	// Bounded-deadline cancellation: the run must observe the cancel at
	// its next merge boundary and retire, well inside the full runtime.
	deadline = time.Now().Add(3 * time.Second)
	for {
		st := svc.Stats()
		if st.Inflight == 0 && st.RunsCancelled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run not cancelled within deadline: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	ts.Close()
	svc.Close()
	waitForServiceGoroutineBaseline(t, before)
}

// Close cancels in-flight runs; attached clients get a coherent partial
// result flagged cancelled, and everything drains without leaking.
func TestCloseCancelsInflightRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())

	type reply struct {
		code int
		out  Response
	}
	done := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(Request{Program: longProg()})
		resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- reply{code: -1}
			return
		}
		defer resp.Body.Close()
		var out Response
		_ = json.NewDecoder(resp.Body).Decode(&out)
		done <- reply{code: resp.StatusCode, out: out}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	svc.Close()
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during Close: status %d (%+v)", r.code, r.out)
	}
	if !r.out.Cancelled {
		t.Fatalf("in-flight request during Close returned uncancelled result: %+v", r.out)
	}
	if r.out.States < 1 {
		t.Fatalf("cancelled result lost its coherent prefix: %+v", r.out)
	}

	// After Close, new submissions are refused.
	if code, _ := post(t, ts.URL, Request{Program: smallProg}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close request: status %d, want 503", code)
	}

	ts.Close()
	waitForServiceGoroutineBaseline(t, before)
}

func TestBadRequests(t *testing.T) {
	_, ts := newSvc(t, 0)
	for name, tc := range map[string]struct {
		method string
		body   string
		want   int
	}{
		"not-json":         {http.MethodPost, "{", http.StatusBadRequest},
		"unknown-analysis": {http.MethodPost, `{"program":"var g;","analysis":"quantum"}`, http.StatusBadRequest},
		"unknown-red":      {http.MethodPost, `{"program":"var g;","options":{"reduction":"fast"}}`, http.StatusBadRequest},
		"unknown-domain":   {http.MethodPost, `{"program":"var g;","analysis":"abstract","options":{"domain":"octagon"}}`, http.StatusBadRequest},
		"parse-error":      {http.MethodPost, `{"program":"not a program"}`, http.StatusBadRequest},
		"get-not-allowed":  {http.MethodGet, "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+"/analyze", strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}

	svcBig, tsBig := newSvc(t, 0)
	_ = svcBig
	huge := `{"program":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(tsBig.URL+"/analyze", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}
