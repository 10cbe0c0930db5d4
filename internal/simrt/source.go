package simrt

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// sources is the runtime a generated program links: every file of the
// package but this one, which serves the host.
//
//go:embed simrt.go encode.go request.go
var sources embed.FS

// Sources returns the runtime's source files by file name: what the
// harness compiles into the archive generated programs link against.
func Sources() map[string][]byte {
	out := map[string][]byte{}
	names, _ := fs.Glob(sources, "*.go") // the pattern is valid
	for _, name := range names {
		data, _ := sources.ReadFile(name) // embedded files always read
		out[name] = data
	}
	return out
}

// Fingerprint is the SHA-256 of the runtime sources, in file name order:
// a generated program's build key folds it in, so a persistent build
// cache never serves a binary linked against an older runtime.
var Fingerprint = sync.OnceValue(func() string {
	files := Sources()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(files[name])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
})

// FormatParams renders run parameters in the canonical form a program's
// Main reads from its params file: "steps=N", then ",u=SEED:LO:HI" per uniform source. Floats
// are written in strconv's shortest round-trip form ("NaN", "+Inf" and
// "-0" included), so equal parameters always render alike and parse back
// bit-exact. The form needs no quoting in a shell word.
func FormatParams(steps int64, uniform []Uniform) string {
	var sb strings.Builder
	sb.WriteString("steps=")
	sb.WriteString(strconv.FormatInt(steps, 10))
	for _, u := range uniform {
		sb.WriteString(",u=")
		sb.WriteString(strconv.FormatUint(u.Seed, 10))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(u.Lo, 'g', -1, 64))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(u.Hi, 'g', -1, 64))
	}
	return sb.String()
}
