package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// gitCommit is set by run.sh (-ldflags -X); a plain `go run` leaves it.
var gitCommit = "unknown"

// runContext is what a reader needs to know about the host before
// comparing two result files.
type runContext struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumPEs     int    `json:"num_pes"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	WorkDirFS  string `json:"work_dir_fs"`
	// Oversubscribed marks a host with fewer CPUs than the parallel
	// workloads have PEs: nothing is skipped, but the 2-PE numbers then
	// measure time-slicing, not parallelism.
	Oversubscribed bool `json:"oversubscribed"`
}

func readContext(workDir string) runContext {
	return runContext{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumPEs:         numPEs,
		GoVersion:      runtime.Version(),
		CPUModel:       cpuModel(),
		GitCommit:      gitCommit,
		WorkDirFS:      fsName(workDir),
		Oversubscribed: runtime.NumCPU() < numPEs,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// fsName names the filesystem the checkpoint workload fsyncs into, which
// decides what replay.checkpoint_ms_p50 means on this host.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
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
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
