package main

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	accmos "accmos"
)

// The benchmark's builds use a Go build cache that holds only the standard
// library when a set-up starts. Without it a repeated `go build` of an
// identical generated package hits the Go build cache, and a change that
// merely made artifact paths stable would read as a compile speed-up.
// The template is built once per checkout; every set-up copies it.

const stdCacheReady = "READY"

// buildStdCache compiles, into dir, the standard-library packages that
// generated programs import, with the environment the harness builds
// under. It is a no-op when dir is already complete.
func buildStdCache(root, dir string) error {
	if _, err := os.Stat(filepath.Join(dir, stdCacheReady)); err == nil {
		return nil
	}
	work := dir + ".tmp"
	os.RemoveAll(work)
	src := filepath.Join(work, "src")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return err
	}
	m, err := accmos.LoadModel(modelPath(root, "SPV"))
	if err != nil {
		return err
	}
	// Every configuration the workloads build, plus the bare variant.
	variants := []accmos.Options{pipe.options(m, 0), lane.options(m, 0), {OptLevel: accmos.OptO1}}
	env := append(os.Environ(), "GOCACHE="+filepath.Join(work, "cache"), "CGO_ENABLED=0", "GOFLAGS=-mod=mod")
	pkgs := map[string]bool{}
	for i, o := range variants {
		code, err := accmos.GenerateSource(m, o)
		if err != nil {
			return err
		}
		file := filepath.Join(src, fmt.Sprintf("v%d.go", i))
		if err := os.WriteFile(file, []byte(code), 0o644); err != nil {
			return err
		}
		cmd := exec.Command("go", "list", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}{{end}}", file)
		cmd.Env = env
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("listing generated-program imports: %w", err)
		}
		for _, p := range strings.Fields(string(out)) {
			pkgs[p] = true
		}
	}
	list := make([]string, 0, len(pkgs))
	for p := range pkgs {
		list = append(list, p)
	}
	sort.Strings(list)
	cmd := exec.Command("go", append([]string{"build"}, list...)...)
	cmd.Env = env
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the standard library cache: %v\n%s", err, out)
	}
	os.RemoveAll(dir)
	if err := os.Rename(filepath.Join(work, "cache"), dir); err != nil {
		return err
	}
	os.RemoveAll(work)
	return os.WriteFile(filepath.Join(dir, stdCacheReady), []byte(strings.Join(list, "\n")+"\n"), 0o644)
}

// linkTree recreates src under dst: cache entries (the files in src's
// subdirectories) are hard-linked — the Go build cache never rewrites an
// entry in place — and top-level files, which it does rewrite, are copied.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		switch {
		case d.IsDir():
			return os.MkdirAll(target, 0o755)
		case filepath.Dir(rel) != ".":
			return os.Link(path, target)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
