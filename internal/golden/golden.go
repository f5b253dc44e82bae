// Package golden pins the standard output of the commands and examples: a
// test captures what a command prints and compares it byte for byte with a
// file under the package's testdata/ directory. Run the test with
// -update-golden to rewrite the files after an intended output change.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// Stdout runs f with os.Stdout redirected to a temporary file and returns
// what f wrote there.
func Stdout(t testing.TB, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// Check compares got with testdata/name and reports the first line that
// differs; under -update-golden it writes got to the file instead.
func Check(t testing.TB, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	t.Errorf("%s differs from line %d (got %d lines, golden %d):\ngot:  %q\nwant: %q\n(rerun with -update-golden to accept)",
		path, i+1, len(g), len(w), g[i:min(i+1, len(g))], w[i:min(i+1, len(w))])
}
