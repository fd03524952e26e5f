// Package exec schedules independent units of work across a bounded worker
// pool with deterministic reassembly.
//
// The contract that makes parallelism safe for the experiment harness is
// strict: outcomes are returned index-aligned with the input tasks, never in
// completion order, so a run with N workers produces byte-identical output
// to a sequential run as long as every task is a pure function of its
// inputs. A panicking task is recovered into an error outcome instead of
// crashing the process, so one bad parameter point cannot take down its
// sibling trials.
package exec

import (
	"fmt"
	"runtime"
	"sync"
)

// Task is one independent unit of work producing a T.
type Task[T any] struct {
	// Key names the task in progress reports and error messages. It has no
	// scheduling significance.
	Key string
	// Run executes the task. It must not share mutable state with other
	// tasks in the same Run call.
	Run func() (T, error)
}

// Outcome is one task's terminal state: its value, or the error (possibly a
// *PanicError) that ended it.
type Outcome[T any] struct {
	Key   string
	Value T
	Err   error
}

// PanicError is the error recorded for a task whose Run panicked.
type PanicError struct {
	Key   string
	Value any // the recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %q panicked: %v", e.Key, e.Value)
}

// Workers resolves a requested worker count: values <= 0 select GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunProgress executes tasks on at most Workers(workers) goroutines and
// returns one outcome per task, index-aligned with tasks regardless of
// completion order. progress, when non-nil, is invoked serially (never
// concurrently) after each task finishes, in completion order. done counts
// finished tasks including the reported one.
func RunProgress[T any](workers int, tasks []Task[T], progress func(done, total int, o Outcome[T])) []Outcome[T] {
	outs := make([]Outcome[T], len(tasks))
	if len(tasks) == 0 {
		return outs
	}
	workers = Workers(workers)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i] = runOne(tasks[i])
				if progress != nil {
					mu.Lock()
					done++
					progress(done, len(tasks), outs[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return outs
}

// runOne executes a single task, converting a panic into a *PanicError.
func runOne[T any](t Task[T]) (o Outcome[T]) {
	o.Key = t.Key
	defer func() {
		if r := recover(); r != nil {
			o.Err = &PanicError{Key: t.Key, Value: r}
		}
	}()
	o.Value, o.Err = t.Run()
	return o
}
