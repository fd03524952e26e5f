// Fixture for the goroutine rule, loaded under the import path
// acacia/internal/goroutine (anything but internal/exec). The rule bans
// both stray go statements and the channel plumbing they would need:
// concurrency lives in internal/exec only.
package goroutine

func fanOut(work []func()) {
	for _, w := range work {
		go w() // want "go statement outside internal/exec"
	}
	done := make(chan struct{}) // want "channel type outside internal/exec"
	go func() {                 // want "go statement outside internal/exec"
		close(done)
	}()
	<-done // want "channel receive outside internal/exec"
}

// homegrownScheduler is the violation the event engine must never grow: a
// private barrier built from channel sends and selects. One run is one
// event queue; only whole trials run in parallel (exec.RunProgress).
func homegrownScheduler(windows []func(), ready chan int) { // want "channel type outside internal/exec"
	for i, w := range windows {
		w()
		ready <- i // want "channel send outside internal/exec"
	}
	select { // want "select statement outside internal/exec"
	case i := <-ready: // want "channel receive outside internal/exec"
		_ = i
	default:
	}
}

func suppressed(f func()) {
	//acacia:allow goroutine fixture exercises the suppression path
	go f()
}
