package harness

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
