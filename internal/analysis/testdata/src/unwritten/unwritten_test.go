package unwritten

import "testing"

func TestKnob(t *testing.T) {
	k := knobs{testOnly: 1}
	k.testOnly++
	if k.testOnly != 2 {
		t.Fatal(k.testOnly)
	}
}
