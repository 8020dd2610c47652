package xpath

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocReferencesResolve: every *.md file named in a Go comment or in
// README.md exists, relative to the naming file's directory or to the
// repository root. A comment that sends the reader to a missing document
// explains nothing.
func TestDocReferencesResolve(t *testing.T) {
	mdRef := regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	check := func(file, text string) {
		for _, ref := range mdRef.FindAllString(text, -1) {
			if !exists(filepath.Join(filepath.Dir(file), ref)) && !exists(ref) {
				t.Errorf("%s names %s, which is not in the repository", file, ref)
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	check("README.md", string(readme))

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			check(path, cg.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
