package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies where and on what a number was measured. Every
// output carries it.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func newStamp(seed uint64) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID("."),
		Seed:       seed,
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		s.NProc, s.GOMAXPROCS, s.GoVersion, s.Commit, s.Seed)
}

// commitID names the source under test: the git commit when the
// checkout is a repository, otherwise a digest of the Go sources and
// module files (an exported tree has no history to name).
func commitID(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return treeDigest(root)
}

// treeDigest hashes every .go, go.mod and go.sum file under root, in
// path order, skipping hidden directories such as the build output.
func treeDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:6])
}
