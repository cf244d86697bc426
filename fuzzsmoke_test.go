package adaudit

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget: every func Fuzz… in the tree's test
// files is a line of scripts/check.sh -fuzz-smoke, under its own
// package, so a new fuzz target cannot go unrun there.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	script, err := os.ReadFile(filepath.Join("scripts", "check.sh"))
	if err != nil {
		t.Fatal(err)
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(f \*testing\.F\)`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // benchmark is a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			found++
			line := `"` + string(m[1]) + " ./" + filepath.ToSlash(filepath.Dir(path)) + `/"`
			if !strings.Contains(string(script), line) {
				t.Errorf("%s (%s) is not in scripts/check.sh -fuzz-smoke: want the line %s", m[1], path, line)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz target: the walk is broken")
	}
}
