package main

import (
	"flag"
	"os"
	"testing"
)

// TestRunExitStatus drives run() through os.Args: an unknown figure fails
// with status 1, and a -scale shape the generator's address plan cannot
// build is refused up front instead of panicking on a duplicate address.
func TestRunExitStatus(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-list"}, 0},
		{[]string{"-fig", "no-such-figure"}, 1},
		{[]string{"-scale", "-scale-ues", "1000001"}, 1},
		{[]string{"-scale", "-scale-ues", "10", "-scale-sites", "226"}, 1},
		{nil, 2},
	} {
		os.Args = append([]string{"acacia-sim"}, tc.args...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		if got := run(); got != tc.want {
			t.Errorf("acacia-sim %v: exit status %d, want %d", tc.args, got, tc.want)
		}
	}
}
