package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// slotVal is the deterministic per-replicate payload of the slot tests.
func slotVal(rep int) uint64 { return ReplicateSeed(42, rep) % 1_000_003 }

// TestSlotsRestrictExecution: only listed slots run; the rest stay zero
// values with no error, no progress event, and no dropped report.
func TestSlotsRestrictExecution(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	ran := map[int]bool{}
	var events []int
	opts := Options{
		Workers: 3,
		Slots:   []int{1, 4, 6, 97, -2}, // out-of-range entries are ignored
		OnProgress: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev.Rep)
			mu.Unlock()
		},
	}
	out, status, err := RunSweep(context.Background(), n, opts, func(_ context.Context, rep int) (uint64, error) {
		mu.Lock()
		ran[rep] = true
		mu.Unlock()
		return slotVal(rep), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status.Truncated || len(status.Dropped) != 0 {
		t.Fatalf("slot restriction must not report truncation: %+v", status)
	}
	want := map[int]bool{1: true, 4: true, 6: true}
	if !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	if len(events) != 3 {
		t.Fatalf("progress events for %v, want exactly the 3 executed slots", events)
	}
	for rep := 0; rep < n; rep++ {
		if want[rep] && out[rep] != slotVal(rep) {
			t.Fatalf("slot %d: got %d, want %d", rep, out[rep], slotVal(rep))
		}
		if !want[rep] && out[rep] != 0 {
			t.Fatalf("unlisted slot %d computed a value: %d", rep, out[rep])
		}
	}
}

// TestSlotsShardMergeByteIdentical is the distribution contract: executing a
// sweep as disjoint slot shards and merging the per-replicate OnResult bytes
// reproduces the unrestricted sweep's journal bytes exactly, whatever the
// sharding.
func TestSlotsShardMergeByteIdentical(t *testing.T) {
	const n = 9
	run := func(_ context.Context, rep int) (uint64, error) { return slotVal(rep), nil }

	// OnResult runs on the worker goroutines, so both maps take mu.
	var mu sync.Mutex
	golden := make(map[int]string, n)
	opts := Options{OnResult: func(rep int, raw json.RawMessage) error {
		mu.Lock()
		golden[rep] = string(raw)
		mu.Unlock()
		return nil
	}}
	if _, _, err := RunSweep(context.Background(), n, opts, run); err != nil {
		t.Fatal(err)
	}
	if len(golden) != n {
		t.Fatalf("OnResult saw %d replicates, want %d", len(golden), n)
	}

	shards := [][]int{{0, 3, 8}, {1, 2}, {4, 5, 6, 7}}
	merged := make(map[int]string, n)
	for _, shard := range shards {
		sopts := Options{
			Workers: 2,
			Slots:   shard,
			OnResult: func(rep int, raw json.RawMessage) error {
				mu.Lock()
				merged[rep] = string(raw)
				mu.Unlock()
				return nil
			},
		}
		if _, _, err := RunSweep(context.Background(), n, sopts, run); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged, golden) {
		t.Fatalf("sharded merge differs from unrestricted run:\n got %v\nwant %v", merged, golden)
	}
}

// TestSlotsSkipJournaledReplicates: a resumed journal must not merge results
// into slots outside the restriction — an excluded slot stays zero even when
// the journal holds it.
func TestSlotsSkipJournaledReplicates(t *testing.T) {
	dir := t.TempDir()
	meta := SweepMeta{Sweep: "slots", SpecHash: "abc", BaseSeed: 42, Replicates: 4}
	path := filepath.Join(dir, "slots.jnl")
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		raw, _ := json.Marshal(slotVal(rep))
		if err := j.Record(rep, raw, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	opts := Options{Journal: j, Resume: true, Slots: []int{2}}
	out, status, err := RunSweep(context.Background(), 4, opts, func(_ context.Context, rep int) (uint64, error) {
		t.Fatalf("replicate %d executed despite being journaled", rep)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 {
		t.Fatalf("resumed %d replicates, want exactly the restricted slot", status.Resumed)
	}
	for rep, v := range out {
		if rep == 2 && v != slotVal(2) {
			t.Fatalf("slot 2: got %d, want %d", v, slotVal(2))
		}
		if rep != 2 && v != 0 {
			t.Fatalf("excluded slot %d merged from journal: %d", rep, v)
		}
	}
}

// TestOnResultFailureFailsReplicate: a result that cannot be delivered is a
// failed replicate, attributable to its index; transient delivery failures
// retry like any other transient error.
func TestOnResultFailureFailsReplicate(t *testing.T) {
	boom := errors.New("upload refused")
	_, _, err := RunSweep(context.Background(), 3, Options{
		KeepGoing: true,
		OnResult: func(rep int, _ json.RawMessage) error {
			if rep == 1 {
				return boom
			}
			return nil
		},
	}, func(_ context.Context, rep int) (uint64, error) { return slotVal(rep), nil })
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 1 || se.Failures[0].Rep != 1 {
		t.Fatalf("want exactly replicate 1 failed, got %v", err)
	}
	if !errors.Is(se.Failures[0].Err, boom) {
		t.Fatalf("failure does not unwrap to the delivery error: %v", se.Failures[0].Err)
	}

	// Transient delivery failures retry with the replicate's seeded backoff.
	attempts := 0
	out, status, err := RunSweep(context.Background(), 1, Options{
		MaxRetries:   3,
		RetryBackoff: 1, // nanoseconds: keep the test instant
		OnResult: func(_ int, _ json.RawMessage) error {
			attempts++
			if attempts < 3 {
				return MarkTransient(fmt.Errorf("flaky sink attempt %d", attempts))
			}
			return nil
		},
	}, func(_ context.Context, rep int) (uint64, error) { return slotVal(rep), nil })
	if err != nil {
		t.Fatalf("transient delivery failures should have retried clean: %v", err)
	}
	if attempts != 3 || status.Retries != 2 {
		t.Fatalf("attempts %d retries %d, want 3 and 2", attempts, status.Retries)
	}
	if out[0] != slotVal(0) {
		t.Fatalf("result lost across delivery retries: %d", out[0])
	}
}

// TestOpenFirstSweepJournalMatchesRunReplicates: the exported seq-0 journal
// opener must produce the file and meta that a journaling RunReplicatesSweep
// of the same Config opens — appends through one must resume through the
// other.
func TestOpenFirstSweepJournalMatchesRunReplicates(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 7, Sweep: "first-sweep"}.WithJournal(dir, false)
	j, err := OpenFirstSweepJournal(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Record slot 2 as a worker upload would: canonical JSON bytes.
	raw, _ := json.Marshal(slotVal(2))
	if err := j.Record(2, raw, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A resuming sweep of the same Config merges the upload and computes the
	// rest.
	rcfg := Config{Seed: 7, Sweep: "first-sweep"}.WithJournal(dir, true)
	executed := map[int]bool{}
	var mu sync.Mutex
	out, status, err := RunReplicatesSweep(rcfg, 4, func(rep int) (uint64, error) {
		mu.Lock()
		executed[rep] = true
		mu.Unlock()
		return slotVal(rep), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 || executed[2] {
		t.Fatalf("slot 2 was not merged from the coordinator journal: resumed=%d executed=%v", status.Resumed, executed)
	}
	for rep, v := range out {
		if v != slotVal(rep) {
			t.Fatalf("slot %d: got %d, want %d", rep, v, slotVal(rep))
		}
	}
}
