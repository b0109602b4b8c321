// Self-hosting: the analyzers run over this repository's own packages and
// must come back clean. The packages listed are the ones the invariants
// are about — the register substrates, the protocol core, the
// observability shards, the history they feed — plus the analyzer suite
// itself, which has no excuse to fail its own checks. A diagnostic here is
// either a real regression or a missing annotation; both belong in the
// diff that introduced them, not in a suppression list. Offending
// positions are listed file:line so the regression is one click away.
package analysis_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atest"
	"repro/internal/analysis/seqlock"
)

var selfhostPkgs = []string{
	"repro/internal/history",
	"repro/internal/register",
	"repro/internal/obs",
	"repro/internal/core",
	"repro/internal/wire",
	"repro/internal/netreg",
	"repro/internal/replica",
	"repro/internal/loadgen",
	"repro/internal/linz",
	"repro/internal/analysis",
	"repro/internal/analysis/atest",
	"repro/internal/analysis/ssair",
	"repro/internal/analysis/atomicmix",
	"repro/internal/analysis/waitfree",
	"repro/internal/analysis/seqlock",
	"repro/internal/analysis/obsshard",
	"repro/internal/analysis/allocfree",
	"repro/internal/analysis/lockorder",
	"repro/internal/analysis/sharedfield",
}

func TestSelfHost(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	// One loader for every analyzer: packages (and the standard library
	// under them) are typechecked once, ssair lowers each package once,
	// and facts accumulate in the shared store exactly as they would under
	// a real driver.
	l := atest.NewLoader(map[string]string{
		"repro":              root,
		"golang.org/x/tools": filepath.Join(root, "third_party", "golang.org", "x", "tools"),
	})
	for _, a := range analysis.All() {
		t.Run(a.Name, func(t *testing.T) {
			diags := atest.Check(t, l, a, selfhostPkgs...)
			for _, d := range diags {
				t.Errorf("%s: %s: %s", a.Name, l.Fset.Position(d.Pos), d.Message)
			}
		})
	}
	// A clean seqlock run proves nothing about a register the analyzer
	// does not recognise: pin that it checks register.Seqlock's Write
	// and Read, so a layout change cannot drop them out of checking.
	t.Run("seqlock-coverage", func(t *testing.T) {
		res, err := l.Result(seqlock.Analyzer, "repro/internal/register")
		if err != nil {
			t.Fatal(err)
		}
		want := &seqlock.Roles{Writers: []string{"Write"}, Readers: []string{"Read"}}
		if got := res.(seqlock.Result)["Seqlock"]; !reflect.DeepEqual(got, want) {
			t.Fatalf("seqlock analyzer checked register.Seqlock as %+v, want %+v", got, want)
		}
	})
}
