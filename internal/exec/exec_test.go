package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderPreserved runs tasks whose completion order is the reverse of
// their declaration order and checks outcomes still align with input order.
func TestOrderPreserved(t *testing.T) {
	const n = 8
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{Key: fmt.Sprint(i), Run: func() (int, error) {
			time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
			return i * 10, nil
		}}
	}
	outs := RunProgress(n, tasks, nil)
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("task %d: %v", i, o.Err)
		}
		if o.Value != i*10 || o.Key != fmt.Sprint(i) {
			t.Errorf("outs[%d] = {%q, %d}, want {%q, %d}", i, o.Key, o.Value, fmt.Sprint(i), i*10)
		}
	}
}

func TestPanicRecoveredSiblingsSurvive(t *testing.T) {
	var ran atomic.Int32
	tasks := []Task[string]{
		{Key: "ok-1", Run: func() (string, error) { ran.Add(1); return "a", nil }},
		{Key: "boom", Run: func() (string, error) { panic("kaput") }},
		{Key: "ok-2", Run: func() (string, error) { ran.Add(1); return "b", nil }},
	}
	outs := RunProgress(2, tasks, nil)
	if ran.Load() != 2 {
		t.Errorf("sibling tasks ran = %d, want 2", ran.Load())
	}
	if outs[0].Err != nil || outs[0].Value != "a" || outs[2].Err != nil || outs[2].Value != "b" {
		t.Errorf("sibling outcomes corrupted: %+v", outs)
	}
	var pe *PanicError
	if !errors.As(outs[1].Err, &pe) {
		t.Fatalf("outs[1].Err = %v, want *PanicError", outs[1].Err)
	}
	if pe.Key != "boom" || pe.Value != "kaput" {
		t.Errorf("panic error = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") || !strings.Contains(pe.Error(), "kaput") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

// TestBoundedConcurrency checks the pool never runs more tasks at once than
// the requested worker count.
func TestBoundedConcurrency(t *testing.T) {
	const workers, n = 3, 24
	var cur, peak atomic.Int32
	tasks := make([]Task[struct{}], n)
	for i := range tasks {
		tasks[i] = Task[struct{}]{Key: fmt.Sprint(i), Run: func() (struct{}, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return struct{}{}, nil
		}}
	}
	RunProgress(workers, tasks, nil)
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency = %d, want <= %d", p, workers)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

// TestProgressSerialized checks the callback sees every completion exactly
// once with a strictly increasing done count.
func TestProgressSerialized(t *testing.T) {
	const n = 16
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{Key: fmt.Sprint(i), Run: func() (int, error) { return i, nil }}
	}
	var calls []int
	outs := RunProgress(4, tasks, func(done, total int, o Outcome[int]) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		calls = append(calls, done) // serialized by the pool: no lock needed
	})
	if len(outs) != n || len(calls) != n {
		t.Fatalf("outcomes = %d, progress calls = %d, want %d", len(outs), len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence = %v", calls)
		}
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	sentinel := errors.New("nope")
	outs := RunProgress(1, []Task[int]{{Key: "e", Run: func() (int, error) { return 0, sentinel }}}, nil)
	if !errors.Is(outs[0].Err, sentinel) {
		t.Errorf("err = %v, want sentinel", outs[0].Err)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if outs := RunProgress[int](4, nil, nil); len(outs) != 0 {
		t.Errorf("empty run returned %d outcomes", len(outs))
	}
	outs := RunProgress(8, []Task[int]{{Key: "only", Run: func() (int, error) { return 42, nil }}}, nil)
	if outs[0].Value != 42 {
		t.Errorf("single-task run = %+v", outs[0])
	}
}
