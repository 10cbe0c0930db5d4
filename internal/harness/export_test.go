package harness

import (
	"errors"
	"os"
	"sort"
)

// ResetToolchain drops the memoized toolchain, so the next build lists
// it again as the first build of a process does.
func ResetToolchain() {
	tcLock <- struct{}{}
	tcMemo = nil
	<-tcLock
}

// RuntimeArchive returns the memoized simrt archive ("" when none).
func RuntimeArchive() string {
	tcLock <- struct{}{}
	defer func() { <-tcLock }()
	if tcMemo == nil {
		return ""
	}
	return tcMemo.runtime
}

// ToolchainPackages lists the memoized toolchain's export table: every
// package a build's importcfg names.
func ToolchainPackages() []string {
	tcLock <- struct{}{}
	defer func() { <-tcLock }()
	var out []string
	if tcMemo != nil {
		for p := range tcMemo.exports {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// RefuseHardLinks makes every hard link a build places fail, as on a
// filesystem without them, until the returned function restores them.
func RefuseHardLinks() (restore func()) {
	hardLink = func(string, string) error { return errors.New("hard links refused") }
	return func() { hardLink = os.Link }
}
