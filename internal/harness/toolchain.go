package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"accmos/internal/obs"
	"accmos/internal/simrt"
)

// toolchain is what a build needs from the Go installation: where the
// compile and link tools live, the version flags `go build` would pass
// them, the export data of every package a generated program can reach,
// and the simrt runtime compiled into an archive. Asking the go command
// for this costs ~150 ms of CPU and the archive ~170 ms; compiling and
// linking a generated program against them skips the go command's module
// load, action graph, build-ID hashing and cache writes, and the
// runtime's compile, on every build. One value is memoized per process
// (see loadToolchain) and never mutated once published, so a build may
// keep using the one it got.
type toolchain struct {
	key     string
	goBin   string
	toolDir string
	version string   // GOVERSION, e.g. "go1.24.0": the -goversion flag
	lang    string   // "go1.24": the -lang flag
	env     []string // what compile and link get on top of os.Environ()
	// exports maps every package listed so far, with everything it
	// imports, to its export file in the Go build cache.
	exports map[string]string
	// runtime is the simrt archive, in a directory of its own ("" until a
	// program importing simrt is built).
	runtime string
}

// runtimePkg is the import path of the runtime generated programs link.
const runtimePkg = "accmos/internal/simrt"

// runtimeImports lists the packages the runtime sources import.
var runtimeImports = sync.OnceValue(func() []string {
	var out []string
	for _, src := range simrt.Sources() {
		f, err := parser.ParseFile(token.NewFileSet(), "", src, parser.ImportsOnly)
		if err != nil {
			panic("harness: embedded runtime source does not parse: " + err.Error())
		}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value) // parsed, so quoted
			out = append(out, path)
		}
	}
	return out
})

// tcLock guards tcMemo. It is a channel, not a mutex, so a build waiting
// for another one's toolchain listing still honours its own context.
var (
	tcLock = make(chan struct{}, 1)
	tcMemo *toolchain
)

// toolchainKey fingerprints the environment that decides which standard
// library archives a build links: the go command on PATH and the
// variables that select its build cache, GOROOT and target.
func toolchainKey(goBin string) string {
	parts := []string{goBin}
	for _, v := range []string{"GOCACHE", "GOROOT", "GOOS", "GOARCH", "GOAMD64", "GOEXPERIMENT"} {
		parts = append(parts, v+"="+os.Getenv(v))
	}
	return strings.Join(parts, "\x00")
}

// loadToolchain returns a toolchain whose export table covers imports
// (and runtime, which every link needs). An import of the simrt runtime
// is served by its archive instead, which the toolchain compiles from
// the sources the package embeds, recording a "compile.runtime" span.
// It reuses the memo while the environment key is unchanged, every
// export file and the archive still exist (a caller may swap GOCACHE and
// delete the old one) and no import is new. A new import grows the memo
// by listing just that package; a changed environment or a vanished
// export file starts it over from `go env`, recording a
// "compile.toolchain" span; a vanished archive is compiled again. A
// failed or cancelled listing or archive compile leaves the memo as it
// was.
func loadToolchain(ctx context.Context, imports []string, tr *obs.Tracer) (*toolchain, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	key := toolchainKey(goBin)
	select {
	case tcLock <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-tcLock }()

	old := tcMemo
	if old != nil && (old.key != key || !old.exportsExist()) {
		old = nil
	}
	needRuntime := slices.Contains(imports, runtimePkg)
	if needRuntime {
		imports = append(slices.Clone(imports), runtimeImports()...)
	}
	var missing []string
	for _, p := range append([]string{"runtime"}, imports...) {
		// unsafe has no export file; the runtime has its archive.
		if p != "unsafe" && p != runtimePkg && (old == nil || old.exports[p] == "") {
			missing = append(missing, p)
		}
	}
	compileRuntime := needRuntime && (old == nil || !old.runtimeExists())
	if len(missing) == 0 && !compileRuntime {
		return old, nil
	}

	next := &toolchain{key: key, goBin: goBin, exports: map[string]string{}}
	if old != nil {
		// Same environment: list only the new imports.
		next.toolDir, next.version, next.lang, next.env = old.toolDir, old.version, old.lang, old.env
		maps.Copy(next.exports, old.exports)
		next.runtime = old.runtime
	}
	if len(missing) > 0 { // always so when old is nil: runtime is missing
		if err := next.list(ctx, old == nil, missing, tr); err != nil {
			return nil, err
		}
	}
	if compileRuntime {
		archive, err := next.compileRuntime(ctx, tr)
		if err != nil {
			return nil, err
		}
		if next.runtime != "" {
			os.Remove(filepath.Dir(next.runtime)) // the vanished archive's directory, once empty
		}
		next.runtime = archive
	}
	tcMemo = next
	return next, nil
}

// list fills the export table for pkgs under a "compile.toolchain"
// span, reading the environment first when the toolchain starts over.
func (tc *toolchain) list(ctx context.Context, fresh bool, pkgs []string, tr *obs.Tracer) error {
	defer tr.Start("compile.toolchain").End()
	if fresh {
		if err := tc.readEnv(ctx); err != nil {
			return err
		}
	}
	return tc.listExports(ctx, pkgs)
}

// goCmd runs the go command from a neutral directory in GOPATH mode:
// no go.mod above the caller's working directory (a toolchain line, a
// vendor directory, an old go line) can change what it reports.
// CGO_ENABLED=0 matches the builds, and GOFLAGS is cleared because the
// export files must match the flags compile and link are given here.
func (tc *toolchain) goCmd(ctx context.Context, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, tc.goBin, args...)
	cmd.Dir = os.TempDir()
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOFLAGS=", "GO111MODULE=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("go %s: %v\n%s", args[0], err, stderr.Bytes())
	}
	return out, nil
}

// readEnv fills the tool directory, the version flags and the tool
// environment from `go env`. compile and link read their target and
// GOROOT from the environment, so they get the go command's view of it.
func (tc *toolchain) readEnv(ctx context.Context) error {
	vars := []string{"GOTOOLDIR", "GOVERSION", "GOROOT", "GOOS", "GOARCH", "GOAMD64", "GOEXPERIMENT"}
	out, err := tc.goCmd(ctx, append([]string{"env", "-json"}, vars...)...)
	if err != nil {
		return err
	}
	env := map[string]string{}
	if err := json.Unmarshal(out, &env); err != nil {
		return fmt.Errorf("go env: %w", err)
	}
	tc.toolDir, tc.version = env["GOTOOLDIR"], env["GOVERSION"]
	if tc.toolDir == "" || tc.version == "" {
		return fmt.Errorf("go env: no GOTOOLDIR or GOVERSION in %s", out)
	}
	tc.lang = langVersion(tc.version)
	for _, v := range vars[2:] {
		tc.env = append(tc.env, v+"="+env[v])
	}
	return nil
}

// langVersion turns a toolchain version ("go1.24.0", "go1.25rc1",
// "devel go1.26-abc") into the -lang flag for it ("go1.24").
func langVersion(v string) string {
	i := strings.Index(v, "go1.")
	if i < 0 {
		return ""
	}
	rest := v[i+len("go1."):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return "go1." + rest[:n]
}

// listExports adds the export files of pkgs and everything they import
// to tc.exports. It compiles into the build cache whatever is not there
// yet; a cold cache costs seconds once.
func (tc *toolchain) listExports(ctx context.Context, pkgs []string) error {
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, pkgs...)
	out, err := tc.goCmd(ctx, args...)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		path, file, _ := strings.Cut(sc.Text(), "=")
		if file != "" {
			tc.exports[path] = file
		}
	}
	return nil
}

// exportsExist reports whether every memoized export file is still on
// disk.
func (tc *toolchain) exportsExist() bool {
	for _, file := range tc.exports {
		if _, err := os.Stat(file); err != nil {
			return false
		}
	}
	return true
}

// runtimeExists reports whether the runtime archive was compiled and is
// still on disk.
func (tc *toolchain) runtimeExists() bool {
	if tc.runtime == "" {
		return false
	}
	_, err := os.Stat(tc.runtime)
	return err == nil
}

// compileRuntime compiles the simrt sources into an archive in a new
// private directory and returns its path. Positions are rewritten to the
// package's import path, so the archive is the same whichever directory
// holds it. On failure, cancellation included, the directory is removed
// and nothing is returned. The directory is the process's: like the
// export files it outlives the builds that link against it.
func (tc *toolchain) compileRuntime(ctx context.Context, tr *obs.Tracer) (archive string, err error) {
	dir, err := os.MkdirTemp("", "accmos-simrt-")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	args := []string{"-o", filepath.Join(dir, "simrt.a"), "-p", runtimePkg, "-lang=" + tc.lang,
		"-complete", "-goversion", tc.version, "-c=" + strconv.Itoa(tc.concurrency()), "-nolocalimports",
		"-importcfg", filepath.Join(dir, "importcfg"), "-pack", "-dwarf=false", "-trimpath", dir + "=>" + runtimePkg}
	inputs := map[string][]byte{"importcfg": tc.importcfg()}
	for name, src := range simrt.Sources() {
		inputs[name] = src
		args = append(args, filepath.Join(dir, name))
	}
	for name, data := range inputs {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return "", err
		}
	}
	if err := tc.tool(ctx, tr, "compile.runtime", "compile", args...); err != nil {
		return "", err
	}
	for name := range inputs {
		os.Remove(filepath.Join(dir, name))
	}
	return filepath.Join(dir, "simrt.a"), nil
}

// concurrency is the compiler's backend concurrency (-c).
func (tc *toolchain) concurrency() int { return min(4, runtime.GOMAXPROCS(0)) }

// importcfg renders the import configuration compile and link share.
func (tc *toolchain) importcfg() []byte {
	paths := make([]string, 0, len(tc.exports))
	for p := range tc.exports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b bytes.Buffer
	b.WriteString("# import config\n")
	for _, p := range paths {
		fmt.Fprintf(&b, "packagefile %s=%s\n", p, tc.exports[p])
	}
	if tc.runtime != "" {
		fmt.Fprintf(&b, "packagefile %s=%s\n", runtimePkg, tc.runtime)
	}
	return b.Bytes()
}

// build compiles srcPath as package main into an archive under a
// "compile.gc" span and links the archive into binPath under a
// "compile.link" span, with the flags `go build -ldflags="-s -w"` passes
// plus -dwarf=false: the link drops DWARF (-w) anyway, so the compiler
// need not generate it. -s -w drops the symbol table and DWARF: the
// linker writes a third less, and the host never debugs a generated
// binary (panics still print symbolized stacks). -trimpath records the
// source by its base name, so the binary does not depend on the
// directory it was built in. The archive does not outlive the link, and
// the binary is renamed into place, so a process still running an older
// binPath is not disturbed.
func (tc *toolchain) build(ctx context.Context, srcPath, binPath string, tr *obs.Tracer) error {
	return tc.withImportcfg(binPath, func(cfg, out string) error {
		obj := out + ".a"
		defer os.Remove(obj)
		if err := tc.tool(ctx, tr, "compile.gc", "compile", "-o", obj, "-p", "main", "-lang="+tc.lang,
			"-complete", "-goversion", tc.version, "-c="+strconv.Itoa(tc.concurrency()), "-nolocalimports",
			"-importcfg", cfg, "-pack", "-dwarf=false", "-trimpath", filepath.Dir(srcPath)+"=>", srcPath); err != nil {
			return err
		}
		if err := tc.tool(ctx, tr, "compile.link", "link", "-o", out, "-importcfg", cfg, "-buildmode=exe", "-s", "-w", obj); err != nil {
			return err
		}
		return os.Rename(out, binPath)
	})
}

// withImportcfg writes the import configuration next to target under a
// unique prefix and calls f with its path and an output path under the
// same prefix; both are removed afterwards. Tool output (compile errors
// print on stdout) is returned in the error.
func (tc *toolchain) withImportcfg(target string, f func(cfg, out string) error) error {
	cfg, err := os.CreateTemp(filepath.Dir(target), filepath.Base(target)+".*.importcfg")
	if err != nil {
		return err
	}
	out := strings.TrimSuffix(cfg.Name(), ".importcfg") + ".out"
	defer func() {
		os.Remove(cfg.Name())
		os.Remove(out)
	}()
	_, err = cfg.Write(tc.importcfg())
	if cerr := cfg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return f(cfg.Name(), out)
}

// tool runs one tool from GOTOOLDIR under a span. ctx kills it.
func (tc *toolchain) tool(ctx context.Context, tr *obs.Tracer, span, name string, args ...string) error {
	defer tr.Start(span).End()
	cmd := exec.CommandContext(ctx, filepath.Join(tc.toolDir, name), args...)
	cmd.Env = append(os.Environ(), tc.env...)
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	if err := cmd.Run(); err != nil {
		return &toolError{err: err, output: output.String()}
	}
	return nil
}

// toolError is a failed compile or link with what the tool printed.
type toolError struct {
	err    error
	output string
}

func (e *toolError) Error() string { return e.err.Error() + "\n" + e.output }
