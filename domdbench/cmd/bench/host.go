package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostFacts is the record every result carries, so numbers taken on
// different machines or commits are never compared blind.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"git_revision"`
	Source     string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	WALFS      string `json:"wal_filesystem"`
}

// host gathers the facts. The server child inherits this process's
// environment, so its GOMAXPROCS is the one recorded here.
func host(seed int64, walDir string) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   gitRevision(),
		Source:     sourceDigest("."),
		Seed:       seed,
		WALFS:      fsType(walDir),
	}
}

// gitRevision is HEAD of the checkout, or "none" when it is not a git
// repository. The ceiling keeps git from reporting an enclosing repo.
func gitRevision() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := command(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest identifies the code under test when there is no git
// revision: a SHA-256 over the path and content of every Go source and
// build file outside hidden directories, in walk order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" && !strings.HasSuffix(name, ".sh") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00")) //lint:ignore droppederr hash.Hash writes never fail
		h.Write(b)                     //lint:ignore droppederr hash.Hash writes never fail
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType is the filesystem type of the mount holding path, by the
// longest matching mount point in /proc/self/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := strings.ReplaceAll(f[1], `\040`, " ")
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
