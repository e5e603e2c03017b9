package experiments

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// Provenance returns the one-line header that opens every experiments
// output, so a committed record names what produced it: the commit and
// whether the tree had uncommitted changes, the CPU model, GOMAXPROCS,
// the Go version and the command line args (args[0] reduced to its base
// name). A field that cannot be determined reads "unknown".
func Provenance(args []string) string {
	cmd := make([]string, len(args))
	for i, a := range args {
		if i == 0 {
			a = filepath.Base(a)
		}
		if a == "" || strings.ContainsAny(a, " \t\"'\\") {
			a = strconv.Quote(a)
		}
		cmd[i] = a
	}
	return "# commit " + commit() + " | cpu " + cpuModel() +
		" | GOMAXPROCS " + strconv.Itoa(runtime.GOMAXPROCS(0)) +
		" | " + runtime.Version() + " | " + strings.Join(cmd, " ")
}

// commit names the source revision, with " (dirty)" when the tree held
// uncommitted changes or untracked files. A binary built by go build in a
// git checkout carries both in its build info; under go run, which
// stamps none, it asks git about the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return withDirty(rev, dirty)
		}
	}
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return "unknown"
	}
	return withDirty(strings.TrimSpace(string(rev)), len(status) > 0)
}

func withDirty(rev string, dirty bool) string {
	if dirty {
		return rev + " (dirty)"
	}
	return rev
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
