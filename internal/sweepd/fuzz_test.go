package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/scenario"
)

// journalEntry is one replicate record of a sweep journal: its slot and
// result bytes as written.
type journalEntry struct {
	rep    int
	result string
}

// journaled reads a sweep journal's replicate records in file order. The
// writer may still hold the file: appends reach the kernel in one write.
func journaled(t *testing.T, path string) []journalEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := journal.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var out []journalEntry
	for {
		payload, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Kind   string          `json:"kind"`
			Rep    int             `json:"rep"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == "replicate" {
			out = append(out, journalEntry{rec.Rep, string(rec.Result)})
		}
	}
}

// FuzzLeaseUpload posts arbitrary bytes to POST /v1/leases/{id}/results
// against a server whose one job is in its distribution phase: slot 0 was
// journaled by an earlier run, slot 1 reported failed, slots 2 and 3 are
// open. Whatever the body, the answer is 200, 400 or 410 — never a 5xx — no
// slot is ever both journaled and failed, and the journal changes only on a
// 200 for a new result, gaining exactly that slot with those bytes (as
// canonical JSON).
func FuzzLeaseUpload(f *testing.F) {
	for _, seed := range []string{
		`{"job_id":"j-000001","replicate":2,"result":123}`,
		`{"job_id":"j-000001","replicate":3,"failed":"replicate 3 panicked"}`,
		`{"job_id":"j-000001","replicate":2,"result":123,"failed":"both"}`,
		`{"job_id":"j-000001","replicate":2,"result":null}`,
		`{"job_id":"j-000001","replicate":4,"result":1}`,
		`{"job_id":"j-000001","replicate":-1,"result":1}`,
		`{"job_id":"j-000001","replicate":2,"res`,
		`{"job_id":"j-000001","replicate":1,"result":{"late": "<result>"}}`,
		`{"job_id":"j-000001","replicate":0,"result":0}`,
		`{"job_id":"j-000001","replicate":0,"failed":"late failure"}`,
		`{"job_id":"j-000002","replicate":2,"result":1}`,
	} {
		f.Add([]byte(seed))
	}
	store, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	srv := NewServer(store, ServerOptions{Distribute: true, LeaseTTL: time.Hour})
	job := &Job{ID: "j-000001", Spec: JobSpec{Experiment: expFast}}

	f.Fuzz(func(t *testing.T, body []byte) {
		j, err := scenario.OpenFirstSweepJournal(scenario.Config{Sweep: expFast}.WithJournal(t.TempDir(), true), fastReps)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if err := j.Record(0, json.RawMessage("0"), 0); err != nil {
			t.Fatal(err)
		}
		srv.leases.register(job, fastReps, j, []int{0}, time.Now())
		defer srv.leases.unregister(job.ID)
		if _, err := srv.leases.upload(UploadRequest{JobID: job.ID, Replicate: 1, Failed: "set up"}, time.Now()); err != nil {
			t.Fatal(err)
		}
		before := journaled(t, j.Path())

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/leases/l-000001/results", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGone:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}

		after := journaled(t, j.Path())
		srv.leases.mu.Lock()
		failed := srv.leases.jobs[job.ID].failed
		for _, e := range after {
			if failed[e.rep] {
				srv.leases.mu.Unlock()
				t.Fatalf("slot %d is both journaled and failed after body %q", e.rep, body)
			}
		}
		srv.leases.mu.Unlock()

		want := before
		var req UploadRequest
		var ack UploadResponse
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &ack) == nil && !ack.Duplicate &&
			json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.Failed == "" {
			canon, err := json.Marshal(req.Result)
			if err != nil {
				t.Fatal(err)
			}
			want = append(slices.Clone(before), journalEntry{req.Replicate, string(canon)})
		}
		if !slices.Equal(after, want) {
			t.Fatalf("journal after body %q (status %d):\n got %v\nwant %v", body, rec.Code, after, want)
		}
	})
}
