package main

import "testing"

// TestCheckSet: -checks accepts real and pseudo names and rejects unknowns.
func TestCheckSet(t *testing.T) {
	got := checkSet("maporder, loaderror,nolint,bogus")
	for _, name := range []string{"maporder", "loaderror", "nolint"} {
		if !got[name] {
			t.Errorf("checkSet dropped %q", name)
		}
	}
	if got["bogus"] {
		t.Error("checkSet accepted unknown name")
	}
	if checkSet("") != nil {
		t.Error("empty spec must mean all checks (nil set)")
	}
}
