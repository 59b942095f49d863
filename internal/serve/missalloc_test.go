package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cli"
)

// TestPlanMissAllocationBounded pins what a /v1/plan cache miss
// allocates in each of servebench's plan-miss classes: an inline
// 2000-leaf tree planned with cuts, a 1000-gate DAG with observe, and a
// 300-gate DAG with hybrid. Each run sends a circuit of a fresh seed, so
// every request takes the full path, parse through engine and encode.
// The bounds sit 15% above what the miss path allocates with its flat
// arrays, 1.18, 0.90 and 1.08 MB; with the maps, per-node slices and
// replayed circuits it replaced, the three classes allocated 1.70, 1.47
// and 2.21 MB, and observe and hybrid 1.00 and 1.11 MB while the observe
// DP split its budget across regions through a per-region choice table.
// The hybrid class runs again at GOMAXPROCS 2, where the control
// planner scores on one overlay per worker and the pre-prune proves on
// one state per worker: 1.01 MB, bounded 15% above.
func TestPlanMissAllocationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 21 circuits per class")
	}
	const runs = 20
	for _, tc := range []struct {
		class, spec string
		procs       int
		bound       float64 // bytes per miss
	}{
		{"cuts", "tree:leaves=2000,seed=%d", 1, 1.36e6},
		{"observe", "dag:gates=1000,seed=%d", 1, 1.03e6},
		{"hybrid", "dag:gates=300,seed=%d", 1, 1.24e6},
		{"hybrid", "dag:gates=300,seed=%d", 2, 1.16e6},
	} {
		name := tc.class
		if tc.procs > 1 {
			name = fmt.Sprintf("%s-gomaxprocs%d", tc.class, tc.procs)
		}
		t.Run(name, func(t *testing.T) {
			bodies := make([][]byte, runs+1)
			for i := range bodies {
				c, err := cli.Generate(fmt.Sprintf(tc.spec, 100+i))
				if err != nil {
					t.Fatal(err)
				}
				body, err := json.Marshal(netlistRequest{
					Bench:   string(canonicalNetlist(c)),
					Options: json.RawMessage(fmt.Sprintf(`{"planner":%q}`, tc.class)),
				})
				if err != nil {
					t.Fatal(err)
				}
				bodies[i] = body
			}
			s, err := New(Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			next := 0
			n := bytesPerRun(tc.procs, runs, func() {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(bodies[next])))
				next++
				if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != "miss" {
					t.Fatalf("status %d X-Cache %q, want a 200 miss", rr.Code, rr.Header().Get("X-Cache"))
				}
			})
			t.Logf("%s miss allocated %.3f MB", tc.class, n/1e6)
			if n >= tc.bound {
				t.Errorf("%s miss allocated %.0f bytes, want under %.0f", tc.class, n, tc.bound)
			}
		})
	}
}
