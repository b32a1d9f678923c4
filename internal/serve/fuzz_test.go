package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// FuzzJobSpec drives POST /v1/jobs with arbitrary bodies. The handler
// must never panic, must answer with one of its documented statuses,
// and every spec it accepts must be runnable: unique registered
// experiment IDs, a parseable non-negative deadline, and a shard count
// in [0, maxShards]. Each input is submitted twice to a queue of one,
// so an accepted spec also exercises the 429 back-out.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"experiments":["T1"],"seed":1}`,
		`{"experiments":["all"],"seed":2,"quick":true,"tenant":"acme","priority":3}`,
		`{"experiments":["t1"," f9 "],"deadline":"90s","shards":4,"capture":true}`,
		`{"experiments":["T1","T1"]}`,
		`{"experiments":["T1"],"deadline":"-5s"}`,
		`{"experiments":["T1"],"shards":65}`,
		`{"experiments":["Z9"]}`,
		`{"experiments":[]}`,
		`{"experiments":["T1"],"bogus":1}`,
		`{"experiments":["T1"]} trailing`,
		`[]`,
		``,
	} {
		f.Add(body)
	}
	lookup, all := testRegistry(okRunner("T1", "v1"), okRunner("F9", "v1"), okRunner("X1", "v1"))
	f.Fuzz(func(t *testing.T, body string) {
		s, err := New(Config{DataDir: "data", QueueCap: 1, FS: vfs.NewMemFS(), lookup: lookup, allIDs: all})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			rec := httptest.NewRecorder()
			s.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			switch rec.Code {
			case http.StatusBadRequest, http.StatusTooManyRequests,
				http.StatusServiceUnavailable, http.StatusInsufficientStorage:
				continue
			case http.StatusAccepted:
			default:
				t.Fatalf("status %d for body %q", rec.Code, body)
			}
			var snap Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Fatalf("202 body %q: %v", rec.Body.Bytes(), err)
			}
			spec := snap.Spec
			seen := map[string]bool{}
			for _, id := range spec.Experiments {
				if _, ok := lookup(id); !ok || seen[id] {
					t.Fatalf("accepted experiment list %q (unknown or repeated %q)", spec.Experiments, id)
				}
				seen[id] = true
			}
			if len(seen) == 0 {
				t.Fatalf("accepted an empty experiment list from %q", body)
			}
			if d, err := spec.deadline(); err != nil || d < 0 {
				t.Fatalf("accepted deadline %q (%v, %v)", spec.Deadline, d, err)
			}
			if spec.Shards < 0 || spec.Shards > maxShards {
				t.Fatalf("accepted shards %d", spec.Shards)
			}
		}
	})
}
