package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"stars/internal/star"
)

// serveOptimize answers one /optimize request through Handler() without a
// socket and decodes the response.
func serveOptimize(t testing.TB, h http.Handler, body string) OptimizeResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/optimize", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRequestsShareImmutableRules: every request optimizes with the rule
// set the daemon parsed once at boot, and concurrent requests never mutate
// it (run under -race).
func TestRequestsShareImmutableRules(t *testing.T) {
	s := newTestServer(t, Config{})
	before := star.Format(s.rules)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveOptimize(t, s.Handler(), `{"sql":"`+figure1SQL+`"}`)
		}()
	}
	wg.Wait()
	if after := star.Format(s.rules); after != before {
		t.Fatalf("requests mutated the shared rule set:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestPlainRequestsMatchEventKeeping: a plain request keeps no event log,
// yet reports the same event count as a provenance request (which keeps
// one), and a daemon fed plain requests reports the same /coverage as one
// fed the same requests with provenance on.
func TestPlainRequestsMatchEventKeeping(t *testing.T) {
	plain, withProv := newTestServer(t, Config{}), newTestServer(t, Config{})
	sqls := []string{
		figure1SQL,
		strings.ReplaceAll(figure1SQL, "'Haas'", "'Lohman'"),
		"SELECT DEPT.DNO, EMP.ENO FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO ORDER BY DEPT.DNO",
	}
	for _, sql := range sqls {
		for _, extra := range []string{"", `,"execute":true,"analyze":true`} {
			a := serveOptimize(t, plain.Handler(), `{"sql":"`+sql+`"`+extra+`}`)
			b := serveOptimize(t, withProv.Handler(), `{"sql":"`+sql+`","provenance":true`+extra+`}`)
			if a.Stats.Events != b.Stats.Events || a.Stats.Events == 0 {
				t.Errorf("%s%s: plain stats.events %d, provenance %d", sql, extra, a.Stats.Events, b.Stats.Events)
			}
			if len(b.Provenance) == 0 || len(a.Provenance) != 0 {
				t.Errorf("provenance sections: plain %d bytes, requested %d bytes", len(a.Provenance), len(b.Provenance))
			}
		}
	}
	pa, pb := plain.ledger.Snapshot(plain.rules), withProv.ledger.Snapshot(withProv.rules)
	if !reflect.DeepEqual(pa, pb) {
		ja, _ := json.Marshal(pa)
		jb, _ := json.Marshal(pb)
		t.Errorf("coverage differs\nplain:      %s\nprovenance: %s", ja, jb)
	}
	ra, rb := plain.Registry().Counters(), withProv.Registry().Counters()
	for name, v := range ra {
		if strings.HasPrefix(name, "coverage_") && rb[name] != v {
			t.Errorf("%s: plain %d, provenance %d", name, v, rb[name])
		}
	}
	if got := ra["coverage_runs_total"]; got != int64(2*len(sqls)) {
		t.Errorf("coverage_runs_total = %d, want %d", got, 2*len(sqls))
	}
}

// TestServeOptimizeAllocs pins the allocation cost of a default-config
// figure1 /optimize through Handler(), so a per-request event log (or any
// other per-request cost of its size) cannot creep back unnoticed.
func TestServeOptimizeAllocs(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	body := []byte(`{"sql":"` + figure1SQL + `"}`)
	allocs := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/optimize", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	t.Logf("figure1 /optimize: %.0f allocs/op", allocs)
	// Measured at 2243 (2290 under -race) on go1.24; keeping the request's
	// event log adds ~1700 more.
	const ceiling = 2600
	if allocs > ceiling {
		t.Errorf("figure1 /optimize allocates %.0f/op, ceiling %d", allocs, ceiling)
	}
}
