// Command docslint is the CI documentation gate. It enforces three
// invariants that are otherwise easy to erode one change at a time:
//
//   - every package under internal/ keeps its package comment in a
//     dedicated doc.go, so `go doc` and pkgsite have one canonical place
//     to look and a new file can't silently become the package comment
//     host;
//   - every relative markdown link in the repository's documentation
//     (README.md, docs/*.md, and any other root-level *.md) points at a
//     file or directory that exists, so refactors can't leave dangling
//     links behind;
//   - every exported function and method in internal/ has a caller
//     outside tests (cmd/, examples/ and perfbench/ count) or is named,
//     with its reason, on the keep-list in unused.go; a keep-list entry
//     that no longer exists or has gained a caller fails too. The pass
//     type-checks the tree and the standard library from source with
//     go/parser and go/types (a few seconds).
//
// External links (http/https/mailto) and pure in-page anchors are
// skipped; a `#fragment` suffix on a relative link is stripped before the
// existence check. Exits nonzero listing every violation.
//
// Usage:
//
//	go run ./cmd/docslint          # lint the current directory
//	go run ./cmd/docslint -root .. # lint another tree
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var root = flag.String("root", ".", "repository root to lint")

// checkDocGo returns one problem per internal/* package directory that
// contains Go files but no doc.go. Nested packages (internal/a/b) are
// checked too; directories without Go files (testdata, fixtures) are
// ignored.
func checkDocGo(rootDir string) ([]string, error) {
	var problems []string
	internal := filepath.Join(rootDir, "internal")
	err := filepath.WalkDir(internal, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || d.Name() == "testdata" {
			if d != nil && d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo, hasDoc := false, false
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			hasGo = true
			if e.Name() == "doc.go" {
				hasDoc = true
			}
		}
		if hasGo && !hasDoc {
			rel, _ := filepath.Rel(rootDir, path)
			problems = append(problems, fmt.Sprintf("%s: package has Go files but no doc.go", rel))
		}
		return nil
	})
	return problems, err
}

// mdLink matches inline markdown links [text](target). Reference-style
// links and autolinks are out of scope: the repo's docs use inline links.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// external reports whether a link target leaves the repository.
func external(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:")
}

// checkLinks verifies every relative markdown link in file resolves to an
// existing file or directory, with targets resolved against the file's
// own directory and `#fragment` suffixes stripped.
func checkLinks(rootDir, file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	rel, _ := filepath.Rel(rootDir, file)
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if external(target) || strings.HasPrefix(target, "#") {
				continue
			}
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", rel, i+1, m[1]))
			}
		}
	}
	return problems, nil
}

// docFiles lists the markdown files the linter covers: every *.md at the
// repository root plus everything under docs/.
func docFiles(rootDir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(rootDir, "*.md"))
	if err != nil {
		return nil, err
	}
	docs, err := filepath.Glob(filepath.Join(rootDir, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	files = append(files, docs...)
	sort.Strings(files)
	return files, nil
}

func run(rootDir string) ([]string, error) {
	problems, err := checkDocGo(rootDir)
	if err != nil {
		return nil, err
	}
	unused, err := checkUnused(rootDir, keep)
	if err != nil {
		return nil, err
	}
	problems = append(problems, unused...)
	files, err := docFiles(rootDir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		p, err := checkLinks(rootDir, f)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
	}
	return problems, nil
}

func main() {
	flag.Parse()
	problems, err := run(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		fmt.Printf("docslint: %d problem(s):\n", len(problems))
		for _, p := range problems {
			fmt.Println("  " + p)
		}
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}
