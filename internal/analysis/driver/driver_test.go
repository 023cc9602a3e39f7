package driver_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// TestRepoIsClean is simlint's self-test: the whole module must analyze
// with zero unwaived findings under the full analyzer suite — every
// intentional contract exception in the tree carries its //simlint:
// annotation with a reason, no annotation is stale or misplaced, and no
// new violation has crept in. This is the same invariant `make lint`
// enforces in CI. Waived findings are expected (they are the record of
// each annotation earning its keep) and are only counted.
func TestRepoIsClean(t *testing.T) {
	suite := make(map[string]bool)
	for _, a := range analysis.Analyzers() {
		suite[a.Name] = true
	}
	for _, want := range []string{"reversecheck", "determcheck", "ownercheck"} {
		if !suite[want] {
			t.Errorf("analyzer suite is missing %s", want)
		}
	}

	findings, err := driver.Run(".", false, "./...")
	if err != nil {
		t.Fatalf("simlint failed to run: %v", err)
	}
	bad := driver.Unwaived(findings)
	for _, f := range bad {
		t.Errorf("%s", f)
	}
	if len(bad) > 0 {
		t.Fatalf("simlint found %d unannotated finding(s); fix them or waive with //simlint:<keyword> <reason>", len(bad))
	}
	t.Logf("clean: %d waived finding(s), 0 unwaived", len(findings))
}

// TestStaleAndMisplacedWaivers drives the full pipeline over a throwaway
// module containing one waiver of each fate: one that suppresses a real
// ownership finding (surfaces as a waived finding, not a stale one), one
// anchored to innocent code (stale — it suppresses nothing), and one
// trailing a closing brace (misplaced — it cannot apply to anything, and
// placement is reported instead of staleness). The retired
// //simlint:sharded marker rides along and must be reported as unknown.
func TestStaleAndMisplacedWaivers(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.24\n")
	write("tmpmod.go", `package tmpmod

type worker struct {
	n int //simlint:owned
	m int //simlint:sharded retired marker: must be reported as unknown
}

func (w *worker) bump() { w.n++ }

// grab reads another goroutine's owned field; the waiver is used, so it
// must surface as a waived finding and must not be reported stale.
func grab(w *worker) int {
	return w.n //simlint:crosspe test barrier: read happens after the owner goroutine is joined
}

func idle() {
	//simlint:crosspe stale: the line below violates nothing, so this waiver suppresses nothing
	_ = 1
}

func stray() {
	_ = 2
} //simlint:crosspe trailing a closing brace, so this anchors to nothing
`)

	findings, err := driver.Run(dir, false, "./...")
	if err != nil {
		t.Fatalf("driver.Run on temp module: %v", err)
	}
	var waivedOwner, stale, misplaced, unknown int
	for _, f := range findings {
		switch {
		case f.Analyzer == "ownercheck" && f.Waived:
			waivedOwner++
		case strings.Contains(f.Message, "stale waiver"):
			stale++
			if f.Waived {
				t.Errorf("hygiene finding must not be waivable: %s", f)
			}
		case strings.Contains(f.Message, "misplaced //simlint:crosspe"):
			misplaced++
		case strings.Contains(f.Message, "unknown directive //simlint:sharded"):
			unknown++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if waivedOwner != 1 {
		t.Errorf("want 1 waived ownercheck finding (the used waiver's record), got %d", waivedOwner)
	}
	if stale != 1 {
		t.Errorf("want 1 stale-waiver finding, got %d", stale)
	}
	if misplaced != 1 {
		t.Errorf("want 1 misplaced-waiver finding, got %d", misplaced)
	}
	if unknown != 1 {
		t.Errorf("want 1 unknown-directive finding for the retired //simlint:sharded marker, got %d", unknown)
	}
	if got := len(driver.Unwaived(findings)); got != stale+misplaced+unknown {
		t.Errorf("unwaived count %d, want %d (stale, misplaced and unknown only)", got, stale+misplaced+unknown)
	}
}
