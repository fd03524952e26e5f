// Fixture for the interprocedural determinism-taint rule, loaded under the
// import path acacia/x/dettaint — deliberately outside internal/, where the
// per-site wallclock rule does not apply. Every nondeterminism source here
// is laundered through at least one wrapper, so only the call graph can
// connect it to handler context.
package dettaint

import (
	"os"
	"time"

	"acacia/internal/sim"
)

// wallNow launders time.Now behind a helper two hops from the handler.
func wallNow() time.Time { return time.Now() } // want "time.Now reads or waits on the wall clock but is reachable from a sim event handler"

// deep adds the second hop: handler -> deep -> wallNow.
func deep() time.Time { return wallNow() }

// env launders the process environment.
func env() string { return os.Getenv("ACACIA_MODE") } // want "os.Getenv reads the process environment but is reachable"

// guarded would be flagged, but the path is suppressed at the sink site.
func guarded() time.Time {
	//acacia:allow dettaint fixture: exercising the suppression path
	return time.Now()
}

// Run schedules the handlers that root the taint walk.
func Run(eng *sim.Engine) {
	eng.Schedule(time.Millisecond, func() {
		_ = deep()
		_ = guarded()
	})
	eng.ScheduleArg(time.Millisecond, func(any) { _ = env() }, nil)
}

// cold also reads the wall clock, but nothing handler-reachable calls it:
// the per-site rules don't govern this package and the taint rule must stay
// silent.
func cold() time.Time { return time.Now() }

var _ = cold
