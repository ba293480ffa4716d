package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// env is what every workload shares: the binaries built from the tree, the
// trained bundle, and the directories derived state lives in. Everything is
// under <root>/.bench_build, the only place the benchmark writes.
type env struct {
	root      string
	serverBin string
	trainBin  string
	bundle    string // briq-train output the server and the component pass load
	cacheDir  string // state derived from this build: bundle, store templates
	runDir    string // per-round store directories
	nproc     int
	log       io.Writer // progress lines (stderr); stdout carries results only
}

// prepareEnv builds briq-server and briq-train from the tree at root and
// trains the model bundle. Builds go through the Go build cache, so a rebuild
// of an unchanged tree is a relink check. Derived state is keyed by a hash of
// both binaries: a changed tree gets a fresh bundle and fresh templates, an
// unchanged one reuses them across runs.
func prepareEnv(ctx context.Context, root string, trainPages int, log io.Writer) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "briq-server")); err != nil {
		return nil, fmt.Errorf("%s is not the briq repository root (no cmd/briq-server): %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(build, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{
		root:      root,
		serverBin: filepath.Join(binDir, "briq-server"),
		trainBin:  filepath.Join(binDir, "briq-train"),
		runDir:    filepath.Join(build, "run"),
		nproc:     runtime.NumCPU(),
		log:       log,
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/briq-server", "./cmd/briq-train")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("build briq-server and briq-train: %w", err)
	}

	h := sha256.New()
	for _, bin := range []string{e.serverBin, e.trainBin} {
		b, err := os.ReadFile(bin)
		if err != nil {
			return nil, err
		}
		h.Write(b)
	}
	id := hex.EncodeToString(h.Sum(nil))[:16]
	cache := filepath.Join(build, "cache")
	// Only one build's derived state is kept: templates are tens of MB each.
	if old, err := os.ReadDir(cache); err == nil {
		for _, d := range old {
			if d.Name() != id {
				os.RemoveAll(filepath.Join(cache, d.Name()))
			}
		}
	}
	e.cacheDir = filepath.Join(cache, id)
	if err := os.MkdirAll(e.cacheDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(e.runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}

	e.bundle = filepath.Join(e.cacheDir, fmt.Sprintf("model-pages%d.bin", trainPages))
	if _, err := os.Stat(e.bundle); err == nil {
		return e, nil
	}
	tmp := e.bundle + ".tmp"
	args := []string{"-seed", "42", "-out", tmp}
	if trainPages > 0 {
		args = append(args, "-pages", strconv.Itoa(trainPages))
	}
	cmd = exec.CommandContext(ctx, e.trainBin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("train bundle: %w", err)
	}
	if err := os.Rename(tmp, e.bundle); err != nil {
		return nil, err
	}
	return e, nil
}

// machineInfo is recorded with every output: a number means little without
// the machine, toolchain and tree that produced it.
func machineInfo(e *env, seed int64, sz sizes) map[string]string {
	info := map[string]string{
		"nproc":             strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs_bench":  strconv.Itoa(runtime.GOMAXPROCS(0)),
		"gomaxprocs_server": strconv.Itoa(e.nproc),
		"go":                runtime.Version(),
		"cpu":               cpuModel(),
		"kernel":            readTrim("/proc/sys/kernel/osrelease"),
		"commit":            gitCommit(e.root),
		"build":             filepath.Base(e.cacheDir),
		"seed":              strconv.FormatInt(seed, 10),
		"sizes":             sz.String(),
	}
	return info
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly; a source tree without
// .git (an exported checkout) reports "none".
func gitCommit(root string) string {
	head := readTrim(filepath.Join(root, ".git", "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		if head == "unknown" {
			return "none"
		}
		return head
	}
	if c := readTrim(filepath.Join(root, ".git", ref)); c != "unknown" {
		return c
	}
	packed := readTrim(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(packed, "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c
		}
	}
	return "unknown"
}
