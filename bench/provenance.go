package main

import (
	"bufio"
	"debug/buildinfo"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

type programs struct{ server, topics string }

// buildPrograms builds the two programs under test from the working
// tree into binDir. Build time is not measured.
func buildPrograms(root, binDir string) (programs, error) {
	p := programs{server: filepath.Join(binDir, "textureserver"), topics: filepath.Join(binDir, "texturetopics")}
	for _, b := range []struct{ out, pkg string }{{p.server, "./cmd/textureserver"}, {p.topics, "./cmd/texturetopics"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return p, fmt.Errorf("building %s: %w", b.pkg, err)
		}
	}
	return p, nil
}

// provenance stamps a result with what it was measured on and with.
type provenance struct {
	CPUModel   string          `json:"cpu_model"`
	NProc      int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Commit     string          `json:"commit"`
	Dirty      bool            `json:"dirty"`
	PGO        map[string]bool `json:"pgo"` // binary → built with default.pgo
	WorkFS     string          `json:"work_fs"`
	Kernel     string          `json:"kernel"`
	Start      string          `json:"start"`
	Seed       uint64          `json:"seed"`
}

func collectProvenance(root string, bins programs, workDir string, seed uint64) provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		PGO:        map[string]bool{},
		WorkFS:     fsType(workDir),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Start:      time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
	}
	// A checkout without .git (an exported tree) has no commit to
	// report; asking git there could describe an enclosing repository.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	for _, bin := range []string{bins.server, bins.topics} {
		pgo := false
		if info, err := buildinfo.ReadFile(bin); err == nil {
			for _, s := range info.Settings {
				pgo = pgo || (s.Key == "-pgo" && s.Value != "")
			}
		}
		p.PGO[filepath.Base(bin)] = pgo
	}
	return p
}

func (p provenance) String() string {
	return fmt.Sprintf("provenance: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%v pgo=%v fs=%s kernel=%s start=%s seed=%d",
		p.CPUModel, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Dirty, p.PGO, p.WorkFS, p.Kernel, p.Start, p.Seed)
}

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

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

// fsType names the file system holding dir, from its statfs magic.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance provenance `json:"provenance"`
	Runs       []*outcome `json:"runs"`
}

func writeResult(path string, prov provenance, runs []*outcome) error {
	b, err := json.MarshalIndent(resultFile{Provenance: prov, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
