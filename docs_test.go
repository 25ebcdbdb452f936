package ufsclust_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ufsclust"
	"ufsclust/internal/core"
	"ufsclust/internal/driver"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vol"
)

// TestDocsNameOnlyExistingTests collects every backticked Test…,
// Benchmark… and Fuzz… name in README.md, DESIGN.md and EXPERIMENTS.md
// and requires a _test.go file of the repository to declare it; a
// trailing * names every function with that prefix. Every backticked
// setting there (`core.Config.X`, `ufs.MountOpts.X`, `ufs.MkfsOpts.X`,
// `driver.Config.X`, `vol.Config.X`, `Options.X`) must name a field of
// that struct. A test or setting that is renamed or deleted must take
// its mentions along.
func TestDocsNameOnlyExistingTests(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)(\\*?)`")
	structs := map[string]reflect.Type{
		"core.Config":   reflect.TypeOf(core.Config{}),
		"ufs.MountOpts": reflect.TypeOf(ufs.MountOpts{}),
		"ufs.MkfsOpts":  reflect.TypeOf(ufs.MkfsOpts{}),
		"driver.Config": reflect.TypeOf(driver.Config{}),
		"vol.Config":    reflect.TypeOf(vol.Config{}),
		"Options":       reflect.TypeOf(ufsclust.Options{}),
	}
	setting := regexp.MustCompile("`(core\\.Config|ufs\\.MountOpts|ufs\\.MkfsOpts|driver\\.Config|vol\\.Config|Options)\\.(\\w+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllStringSubmatch(string(src), -1) {
			if !exists(declared, m[1], m[2] == "*") {
				t.Errorf("%s names `%s%s`, which no _test.go declares", doc, m[1], m[2])
			}
		}
		for _, m := range setting.FindAllStringSubmatch(string(src), -1) {
			if _, ok := structs[m[1]].FieldByName(m[2]); !ok {
				t.Errorf("%s names `%s.%s`, which is no field of %s", doc, m[1], m[2], m[1])
			}
		}
	}
}

func exists(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}
