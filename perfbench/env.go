package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"gompresso/internal/buildinfo"
)

// environment records what a run's numbers were measured on: CPUs,
// GOMAXPROCS, the Go version and the code. The commit comes from the
// toolchain's VCS stamp when the benchmark was built inside a git
// checkout; source is a digest of every Go source and module file under
// the working directory, which names the code without git.
func environment(procs int) map[string]any {
	commit := buildinfo.Get().Revision
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"source":     sourceDigest("."),
	}
}

// sourceDigest hashes the path and contents of every .go, go.mod and
// go.sum file below root, skipping hidden directories (build output,
// VCS metadata). It returns "" when root holds no such file.
func sourceDigest(root string) string {
	h := sha256.New()
	found := false
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not name the code
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		found = true
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if !found {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes returns the machine's total, idle and stolen CPU time in
// clock ticks from /proc/stat, or zeros where it is unavailable. Steal is
// time a virtual machine's CPUs were runnable but held by the host, the
// usual cause of a noisy run; idle includes I/O wait.
func cpuTimes() (total, idle, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		switch i {
		case 3, 4:
			idle += v
		case 7:
			steal = v
		}
	}
	return total, idle, steal
}
