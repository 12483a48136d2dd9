package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test.counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 || c.Name() != "test.counter" {
		t.Fatalf("counter = %d %q", c.Value(), c.Name())
	}
	if again := r.NewCounter("test.counter"); again != c {
		t.Fatal("NewCounter with an existing name must return the same counter")
	}
	g := r.NewGauge("test.gauge")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 || g.Name() != "test.gauge" {
		t.Fatalf("gauge = %d %q", g.Value(), g.Name())
	}
	if again := r.NewGauge("test.gauge"); again != g {
		t.Fatal("NewGauge with an existing name must return the same gauge")
	}
}

func TestSnapshotSortedAndKinds(t *testing.T) {
	r := NewRegistry()
	r.NewGauge("b.gauge").Set(2)
	r.NewCounter("a.counter").Add(1)
	r.RegisterFunc("c.func", func() int64 { return 9 })
	s := r.Snapshot()
	if len(s) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(s))
	}
	want := []Sample{
		{Name: "a.counter", Kind: KindCounter, Value: 1},
		{Name: "b.gauge", Kind: KindGauge, Value: 2},
		{Name: "c.func", Kind: KindGauge, Value: 9},
	}
	for i, w := range want {
		if s[i] != w {
			t.Errorf("sample %d = %+v, want %+v", i, s[i], w)
		}
	}
}

// TestRegisterFuncReplaceAndUnregister: the newest registration under a
// name wins, and a stale unregister (after replacement) is a no-op.
func TestRegisterFuncReplaceAndUnregister(t *testing.T) {
	r := NewRegistry()
	unregOld := r.RegisterFunc("x", func() int64 { return 1 })
	unregNew := r.RegisterFunc("x", func() int64 { return 2 })
	if v := funcValue(t, r, "x"); v != 2 {
		t.Fatalf("x = %d, want the replacement's 2", v)
	}
	unregOld() // stale: must not remove the replacement
	if v := funcValue(t, r, "x"); v != 2 {
		t.Fatalf("x = %d after stale unregister, want 2", v)
	}
	unregNew()
	for _, s := range r.Snapshot() {
		if s.Name == "x" {
			t.Fatal("x still present after its own unregister")
		}
	}
}

// TestSnapshotFuncMayReenter: funcs are evaluated after unlock, so a func
// that reads the registry must not deadlock.
func TestSnapshotFuncMayReenter(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("inner")
	c.Add(3)
	r.RegisterFunc("outer", func() int64 { return r.NewCounter("inner").Value() })
	if v := funcValue(t, r, "outer"); v != 3 {
		t.Fatalf("outer = %d, want 3", v)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test.latency_us")
	if again := r.NewHistogram("test.latency_us"); again != h {
		t.Fatal("NewHistogram with an existing name must return the same histogram")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 observations at 100µs, 10 at 10000µs: p50 lands in the [64,128)
	// bucket (upper bound 128), p99 in [8192,16384) (upper bound 16384).
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000)
	}
	h.Observe(-5) // clamps to 0, lands in bucket 0
	if h.Count() != 111 {
		t.Fatalf("count = %d, want 111", h.Count())
	}
	if h.Sum() != 100*100+10*10000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if got := h.Quantile(0.50); got != 128 {
		t.Errorf("p50 = %d, want 128", got)
	}
	if got := h.Quantile(0.99); got != 16384 {
		t.Errorf("p99 = %d, want 16384", got)
	}
	if h.Name() != "test.latency_us" {
		t.Errorf("name = %q", h.Name())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	for v, want := range map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 1023: 9, 1024: 10, 1 << 50: histBuckets - 1} {
		if got := histBucket(v); got != want {
			t.Errorf("histBucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramInSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("x.lat_us")
	h.Observe(50)
	got := map[string]Sample{}
	for _, s := range r.Snapshot() {
		got[s.Name] = s
	}
	for _, name := range []string{"x.lat_us.count", "x.lat_us.sum", "x.lat_us.p50", "x.lat_us.p95", "x.lat_us.p99"} {
		s, ok := got[name]
		if !ok {
			t.Fatalf("sample %q missing from snapshot", name)
		}
		if s.Kind != KindHistogram {
			t.Errorf("%s kind = %q, want histogram", name, s.Kind)
		}
	}
	if got["x.lat_us.count"].Value != 1 || got["x.lat_us.sum"].Value != 50 {
		t.Errorf("count/sum = %d/%d, want 1/50", got["x.lat_us.count"].Value, got["x.lat_us.sum"].Value)
	}
	if got["x.lat_us.p50"].Value != 64 {
		t.Errorf("p50 = %d, want 64 (upper bound of the [32,64) bucket holding 50)", got["x.lat_us.p50"].Value)
	}
}

func funcValue(t *testing.T, r *Registry, name string) int64 {
	t.Helper()
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %q not in snapshot", name)
	return 0
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("exec.things").Add(11)
	h := Handler(r)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		return rec.Code, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, `exec.things{kind="counter"} 11`) {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, _ := get("/debug/vars"); code != 404 {
		t.Fatalf("/debug/vars = %d, want 404: /metrics is the one HTTP exposition", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// TestPredeclaredEngineMetrics pins the names hot paths increment: a
// rename here silently orphans dashboards keyed on the old name.
func TestPredeclaredEngineMetrics(t *testing.T) {
	for _, m := range []interface{ Name() string }{
		Admissions, Rejections, QueueWaitUs, GrantExtensions, GrantDenials,
		SlowQueries, Spills, SpilledBytes, ExchangeBatches, ExchangeRows,
		ExchangeBytes, TupleMoverMoveouts, TupleMoverMergeouts, ActiveSessions,
	} {
		if !strings.Contains(m.Name(), ".") {
			t.Errorf("metric %q is not namespaced subsystem.metric", m.Name())
		}
	}
	found := false
	for _, s := range Default.Snapshot() {
		if s.Name == "resmgr.admissions" {
			found = true
		}
	}
	if !found {
		t.Fatal("resmgr.admissions missing from the Default registry snapshot")
	}
}
