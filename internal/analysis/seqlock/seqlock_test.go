package seqlock_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/seqlock"
)

// TestSeqlock checks the diagnostics against the testdata's want comments,
// then pins what the analyzer recognised there: every seqlock struct, and
// each method in the role it was checked in. A struct or method missing
// from the result is one the analyzer silently skips.
func TestSeqlock(t *testing.T) {
	l := atest.Run(t, "testdata", seqlock.Analyzer, "a")
	res, err := l.Result(seqlock.Analyzer, "a")
	if err != nil {
		t.Fatal(err)
	}
	want := seqlock.Result{
		"publishing": {
			Writers: []string{"writeGood", "writeTorn"},
			Readers: []string{"readGood", "readUnchecked", "readEarlyCheck"},
		},
		"classic": {
			Writers: []string{"writeGood", "writeOutsideBracket", "writeUnpublished"},
		},
		"aliased": {
			Writers: []string{"writeGood", "writeTornAlias"},
			Readers: []string{"readGood"},
		},
		"packed": {
			Writers: []string{"writeGood", "writeLate"},
			Readers: []string{"readGood", "readUnchecked"},
		},
	}
	if got := res.(seqlock.Result); !reflect.DeepEqual(got, want) {
		for name, roles := range got {
			t.Logf("got %s: %+v", name, *roles)
		}
		t.Fatal("recognised structs or roles differ from the testdata's")
	}
}
