package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRunManyPreservesReplicateOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 32} {
		got, _, err := RunSweep(context.Background(), 16, Options{Workers: workers}, func(_ context.Context, rep int) (int, error) {
			return rep * rep, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := make([]int, 16)
		for i := range want {
			want[i] = i * i
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: got %v", workers, got)
		}
	}
}

func TestRunManyZeroReplicates(t *testing.T) {
	got, _, err := RunSweep(context.Background(), 0, Options{Workers: 4}, func(_ context.Context, rep int) (string, error) {
		t.Error("fn called for n=0")
		return "", nil
	})
	if err != nil || len(got) != 0 {
		t.Errorf("got %v, %v", got, err)
	}
}

func TestRunManyFirstErrorInReplicateOrder(t *testing.T) {
	// Replicates 3 and 7 fail; regardless of scheduling, the reported
	// error must be replicate 3's, and every replicate must still run.
	for _, workers := range []int{1, 8} {
		ran := make([]bool, 10)
		_, _, err := RunSweep(context.Background(), 10, Options{Workers: workers}, func(_ context.Context, rep int) (int, error) {
			ran[rep] = true
			if rep == 3 || rep == 7 {
				return 0, fmt.Errorf("boom %d", rep)
			}
			return rep, nil
		})
		if err == nil || err.Error() != "scenario: replicate 3: boom 3" {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
		for i, r := range ran {
			if !r {
				t.Errorf("workers=%d: replicate %d skipped", workers, i)
			}
		}
	}
}

func TestRunManyErrorUnwraps(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, _, err := RunSweep(context.Background(), 2, Options{Workers: 2}, func(_ context.Context, rep int) (int, error) {
		if rep == 1 {
			return 0, sentinel
		}
		return 0, nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err %v does not wrap sentinel", err)
	}
}

func TestReplicateSeedIsPureAndDecorrelated(t *testing.T) {
	seen := map[uint64]int{}
	for rep := 0; rep < 64; rep++ {
		s := ReplicateSeed(7, rep)
		if again := ReplicateSeed(7, rep); again != s {
			t.Fatalf("rep %d: %#x then %#x", rep, s, again)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("reps %d and %d collide on %#x", prev, rep, s)
		}
		seen[s] = rep
	}
	if ReplicateSeed(7, 0) == ReplicateSeed(8, 0) {
		t.Error("different base seeds produce the same replicate seed")
	}
}

func TestRunManyCtxPanicNamesReplicate(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, _, err := RunSweep(context.Background(), 8, Options{Workers: workers},
			func(_ context.Context, rep int) (int, error) {
				if rep == 5 {
					panic("kaboom")
				}
				return rep, nil
			})
		var re *ReplicateError
		if !errors.As(err, &re) {
			t.Fatalf("workers=%d: error %v is not a *ReplicateError", workers, err)
		}
		if re.Rep != 5 || !re.Panicked {
			t.Errorf("workers=%d: got Rep=%d Panicked=%v, want 5/true", workers, re.Rep, re.Panicked)
		}
		if !strings.Contains(re.Error(), "scenario: replicate 5: panic: kaboom") {
			t.Errorf("workers=%d: error text %q", workers, re.Error())
		}
		if !strings.Contains(re.Stack, "runner_test") {
			t.Errorf("workers=%d: stack trace does not name the panicking test: %q", workers, re.Stack)
		}
	}
}

func TestRunManyCtxCancellationReturnsPromptly(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{}, 64)
		_, _, err := RunSweep(ctx, 64, Options{Workers: workers},
			func(ctx context.Context, rep int) (int, error) {
				started <- struct{}{}
				// The first replicate cancels the sweep; everyone else just
				// waits on the context, so only cancellation lets them finish.
				if rep == 0 {
					cancel()
				}
				<-ctx.Done()
				return 0, ctx.Err()
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The unscheduled tail must never have started: far fewer than 64
		// replicates ran.
		if n := len(started); n >= 64 {
			t.Errorf("workers=%d: all %d replicates started despite cancellation", workers, n)
		}
	}
}

func TestRunManyCtxKeepGoingPartialResults(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, _, err := RunSweep(context.Background(), 8, Options{Workers: workers, KeepGoing: true},
			func(_ context.Context, rep int) (int, error) {
				switch rep {
				case 3:
					return 0, fmt.Errorf("boom %d", rep)
				case 5:
					panic("kaboom")
				}
				return rep * 10, nil
			})
		var se *SweepError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: error %v is not a *SweepError", workers, err)
		}
		if se.Replicates != 8 || len(se.Failures) != 2 {
			t.Fatalf("workers=%d: %d/%d failures, want 2/8", workers, len(se.Failures), se.Replicates)
		}
		if se.Failures[0].Rep != 3 || se.Failures[1].Rep != 5 {
			t.Errorf("workers=%d: failure order %d,%d; want 3,5",
				workers, se.Failures[0].Rep, se.Failures[1].Rep)
		}
		if !se.Failures[1].Panicked {
			t.Error("panic failure not marked Panicked")
		}
		for _, rep := range []int{0, 1, 2, 4, 6, 7} {
			if out[rep] != rep*10 {
				t.Errorf("workers=%d: completed result %d = %d, want %d", workers, rep, out[rep], rep*10)
			}
		}
		want := "scenario: 2 of 8 replicates failed; replicate 3: boom 3; replicate 5: panic: kaboom"
		if se.Error() != want {
			t.Errorf("workers=%d: sweep error %q, want %q", workers, se.Error(), want)
		}
	}
}

func TestRunManyCtxTimeoutAbandonsStuckReplicate(t *testing.T) {
	for _, workers := range []int{1, 4} {
		block := make(chan struct{})
		out, _, err := RunSweep(context.Background(), 4,
			Options{Workers: workers, Timeout: 20 * time.Millisecond, KeepGoing: true},
			func(ctx context.Context, rep int) (int, error) {
				if rep == 1 {
					<-block // ignores its context: must be abandoned
				}
				return rep, nil
			})
		close(block)
		var se *SweepError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: error %v is not a *SweepError", workers, err)
		}
		if len(se.Failures) != 1 || se.Failures[0].Rep != 1 {
			t.Fatalf("workers=%d: failures %v, want exactly replicate 1", workers, se.Failures)
		}
		if !errors.Is(se.Failures[0], context.DeadlineExceeded) {
			t.Errorf("workers=%d: stuck replicate reported %v, want DeadlineExceeded", workers, se.Failures[0].Err)
		}
		for _, rep := range []int{0, 2, 3} {
			if out[rep] != rep {
				t.Errorf("workers=%d: result %d = %d, want %d", workers, rep, out[rep], rep)
			}
		}
	}
}

func TestRunManyCtxPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, _, err := RunSweep(ctx, 4, Options{Workers: 2},
		func(_ context.Context, rep int) (int, error) { ran = true; return rep, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("replicates ran under a pre-cancelled context")
	}
}

func TestRunManyParallelismInvariantWithFailures(t *testing.T) {
	run := func(workers int) ([]int, string) {
		out, _, err := RunSweep(context.Background(), 16, Options{Workers: workers, KeepGoing: true},
			func(_ context.Context, rep int) (int, error) {
				if rep%5 == 4 {
					return 0, fmt.Errorf("boom %d", rep)
				}
				return rep * rep, nil
			})
		return out, err.Error()
	}
	out1, err1 := run(1)
	out8, err8 := run(8)
	if err1 != err8 {
		t.Errorf("error text differs by parallelism:\n 1: %s\n 8: %s", err1, err8)
	}
	for i := range out1 {
		if out1[i] != out8[i] {
			t.Errorf("result %d differs: %d vs %d", i, out1[i], out8[i])
		}
	}
}
