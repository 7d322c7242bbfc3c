package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// The outcome set is built only for requests that ask for it, and the
// flag is part of the key: neither kind of request answers the other.
func TestOutcomesKeyed(t *testing.T) {
	svc, ts := newSvc(t, 0)
	want := explore.Explore(lang.MustParse(smallProg), explore.Options{}).TerminalStoreSet()
	for i, tc := range []struct {
		outcomes, cached bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		_, out := post(t, ts.URL, Request{Program: smallProg, Options: Options{Outcomes: tc.outcomes}})
		if out.Cached != tc.cached {
			t.Fatalf("request %d (outcomes %v): cached %v, want %v", i, tc.outcomes, out.Cached, tc.cached)
		}
		if tc.outcomes && !reflect.DeepEqual(out.Outcomes, want) {
			t.Fatalf("request %d: outcomes %q, want scratch %q", i, out.Outcomes, want)
		}
		if !tc.outcomes && out.Outcomes != nil {
			t.Fatalf("request %d: outcomes %q sent unasked", i, out.Outcomes)
		}
	}
	if st := svc.Stats(); st.Runs != 2 || st.CacheHits != 2 {
		t.Fatalf("stats %+v, want 2 runs / 2 cache hits", st)
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

// Program versions for the resubmission flow: v2 α-renames a parameter
// of v1, v3 edits bump's body, v4 α-renames v3.
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

// metricsCounters reads the aggregated engine counters from /metrics.
func metricsCounters(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
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

// Abstract results are keyed on the α-renamed program hash: an
// α-equivalent resubmission is a cache hit with no base hint, its
// response equals a scratch run's, and the counters in /metrics read as
// if the fixpoint had run again; a real edit runs the engine.
func TestIncrementalBaseRequests(t *testing.T) {
	svc, ts := newSvc(t, 0)
	scratch := func(src string) string {
		return abssem.Analyze(lang.MustParse(src), abssem.Options{}).String()
	}

	_, v1 := post(t, ts.URL, Request{Program: svcIncV1, Analysis: "abstract"})
	if v1.ProgramHash == "" || v1.Cached {
		t.Fatalf("first version: %+v", v1)
	}
	c1 := metricsCounters(t, ts.URL)

	for i, tc := range []struct {
		src    string
		cached bool
	}{{svcIncV2, true}, {svcIncV3, false}, {svcIncV4, true}} {
		_, out := post(t, ts.URL, Request{Program: tc.src, Analysis: "abstract"})
		if out.Cached != tc.cached {
			t.Fatalf("v%d: cached=%t, want %t", i+2, out.Cached, tc.cached)
		}
		if out.Summary != scratch(tc.src) {
			t.Fatalf("v%d summary diverged from scratch:\n%s\nvs\n%s", i+2, out.Summary, scratch(tc.src))
		}
		if i == 0 {
			// The hit replayed v1's deterministic counters.
			c2 := metricsCounters(t, ts.URL)
			if c2["abs_visits"] != 2*c1["abs_visits"] || c2["analysis_cache_hit"] != 1 {
				t.Fatalf("hit did not replay the stored counters: before %v, after %v", c1, c2)
			}
		}
	}
	if st := svc.Stats(); st.Runs != 2 || st.CacheHits != 2 {
		t.Fatalf("stats: %+v, want 2 runs / 2 cache hits", st)
	}
}

// Under clan folding arm grouping reads local names, so a local rename
// is a different analysis input and must miss.
func TestClanFoldRenameMisses(t *testing.T) {
	_, ts := newSvc(t, 0)
	opts := Options{ClanFold: true}
	_, v1 := post(t, ts.URL, Request{Program: svcIncV1, Analysis: "abstract", Options: opts})
	_, v2 := post(t, ts.URL, Request{Program: svcIncV2, Analysis: "abstract", Options: opts})
	if v2.Cached {
		t.Fatal("local rename hit the cache under clan_fold")
	}
	if v1.ProgramHash == v2.ProgramHash {
		t.Fatal("clan_fold responses carry the α hash, not the named one")
	}
	want := abssem.Analyze(lang.MustParse(svcIncV2), abssem.Options{ClanFold: true}).String()
	if v2.Summary != want {
		t.Fatalf("clan_fold v2 summary %q != scratch %q", v2.Summary, want)
	}
}

// Explore results key on the exact source text: a failing assert renders
// its expression into the outcome, so a parameter rename must not be
// served the original's outcomes.
func TestExploreOutcomesRenameMisses(t *testing.T) {
	const failing = `
var g;
func check(k) { assert g == 3 * k; }
func main() {
  cobegin { g = 3; } || { check(1); } coend
}
`
	renamed := strings.NewReplacer("(k)", "(n)", "* k", "* n").Replace(failing)
	if lang.HashProgram(lang.MustParse(renamed)).ProgramHash(false) !=
		lang.HashProgram(lang.MustParse(failing)).ProgramHash(false) {
		t.Fatal("the rename is not α-equivalent")
	}
	_, ts := newSvc(t, 0)
	req := Request{Program: failing, Options: Options{Outcomes: true}}
	post(t, ts.URL, req)
	req.Program = renamed
	_, out := post(t, ts.URL, req)
	if out.Cached {
		t.Fatal("explore request for an α-renamed program hit the cache")
	}
	want := explore.Explore(lang.MustParse(renamed), explore.Options{}).TerminalStoreSet()
	if !reflect.DeepEqual(out.Outcomes, want) {
		t.Fatalf("outcomes %q, want scratch %q", out.Outcomes, want)
	}
	if !strings.Contains(strings.Join(want, "\n"), "3 * n") {
		t.Fatalf("no outcome names the renamed parameter: %q", want)
	}
}

// Every lookup reaches /metrics, including those of requests coalesced
// onto another request's run: N identical concurrent requests leave
// analysis_cache_hit + analysis_cache_miss = N.
func TestCoalescedLookupsReachMetrics(t *testing.T) {
	svc, ts := newSvc(t, 0)
	release := make(chan struct{})
	svc.runHook = func() { <-release }
	const n = 4
	done := make(chan int, n)
	send := func() {
		code, _ := post(t, ts.URL, Request{Program: smallProg})
		done <- code
	}
	go send()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i < n; i++ {
		go send()
	}
	for svc.Stats().CoalesceHits < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers coalesced", svc.Stats().CoalesceHits, n-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("request answered %d", code)
		}
	}
	c := metricsCounters(t, ts.URL)
	if got := c["analysis_cache_hit"] + c["analysis_cache_miss"]; got != n {
		t.Fatalf("analysis_cache_hit+miss = %d after %d lookups (%v)", got, n, c)
	}
	if c["analysis_cache_miss"] != n {
		t.Fatalf("analysis_cache_miss = %d, want %d: every request missed", c["analysis_cache_miss"], n)
	}
}

// A panicking run answers 500 to its requester and to every request
// coalesced onto it, is counted, and leaves nothing cached.
func TestRunPanicAnswers500(t *testing.T) {
	svc, ts := newSvc(t, 0)
	release := make(chan struct{})
	svc.runHook = func() {
		<-release
		panic("boom")
	}
	codes := make(chan int, 2)
	send := func() {
		code, _ := post(t, ts.URL, Request{Program: smallProg})
		codes <- code
	}
	go send()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	go send()
	for svc.Stats().CoalesceHits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never coalesced")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusInternalServerError {
			t.Fatalf("panicked run answered %d, want 500", code)
		}
	}

	svc.runHook = nil
	code, out := post(t, ts.URL, Request{Program: smallProg})
	if code != http.StatusOK || out.Cached {
		t.Fatalf("after the panic: status %d, %+v; want a fresh run", code, out)
	}
	if st := svc.Stats(); st.RunsPanicked != 1 || st.Runs != 2 || st.Inflight != 0 {
		t.Fatalf("stats: %+v, want 1 panicked of 2 runs", st)
	}

	// A panic value that renders as "" is still a panic.
	for i, v := range []any{"", errors.New("")} {
		svc.runHook = func() { panic(v) }
		req := Request{Program: smallProg, Options: Options{MaxConfigs: 100 + i}}
		if code, out := post(t, ts.URL, req); code != http.StatusInternalServerError {
			t.Fatalf("panic(%#v): status %d, %+v; want 500", v, code, out)
		}
	}
	if st := svc.Stats(); st.RunsPanicked != 3 || st.Inflight != 0 {
		t.Fatalf("stats: %+v, want 3 panicked runs", st)
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
