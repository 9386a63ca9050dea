// Command svwstore administers a result store disk tier (internal/store)
// offline: the checksummed *.svw entry files svwd and svwsim keep
// under their -store-dir. Every command starts from a full directory
// re-scan, so it sees everything present — including entries written by
// other daemons sharing the directory, which a live tier's own GC never
// indexes and therefore never collects.
//
// Usage:
//
//	svwstore ls DIR                       list entries, oldest access first
//	svwstore verify DIR                   full-checksum walk; non-zero exit
//	                                      when corrupt or stale-version
//	                                      entries are found
//	svwstore verify -delete DIR           ...and delete what fails
//	svwstore gc [-max-bytes N] DIR        drop temp leftovers, then enforce
//	                                      the size cap over the whole
//	                                      directory (default cap 1 GiB)
//	svwstore prune -older-than DUR DIR    delete entries not accessed for
//	                                      DUR (e.g. 720h)
//
// Exit status: 0 success, 1 a failed command (verification included), 2
// bad usage.
//
// Run it against a live directory freely: writers land entries by atomic
// rename, and a daemon whose indexed entry disappears degrades to a miss
// and a recompute, never an error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"svwsim/internal/store"
)

const usage = `usage:
  svwstore ls DIR
  svwstore verify [-delete] DIR
  svwstore gc [-max-bytes N] DIR
  svwstore prune -older-than DUR DIR
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is svwstore with its arguments and output streams made explicit; it
// returns the exit status: 0 success, 1 a failed command (verification
// included), 2 bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	var cmd func(*flag.FlagSet, []string, io.Writer) error
	switch args[0] {
	case "ls":
		cmd = cmdLS
	case "verify":
		cmd = cmdVerify
	case "gc":
		cmd = cmdGC
	case "prune":
		cmd = cmdPrune
	case "help", "-h", "-help", "--help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "svwstore: unknown command %q\n%s", args[0], usage)
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := cmd(fs, args[1:], stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		fmt.Fprintf(stderr, "svwstore: %v\n%s", err, usage)
		return 2
	default:
		fmt.Fprintf(stderr, "svwstore: %v\n", err)
		return 1
	}
}

// errUsage marks a command line the command cannot run.
var errUsage = errors.New("bad usage")

// parseDir parses a command's flags and returns its one positional DIR
// argument.
func parseDir(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return "", err
		}
		return "", fmt.Errorf("%s: %w", fs.Name(), errUsage)
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s: want exactly one directory argument: %w", fs.Name(), errUsage)
	}
	return fs.Arg(0), nil
}

func cmdLS(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	entries, err := store.ScanDir(dir)
	if err != nil {
		return err
	}
	var total int64
	for _, e := range entries {
		total += e.Size
		key := e.Key
		if e.Err != nil {
			key = fmt.Sprintf("<%v>", e.Err)
		}
		fmt.Fprintf(stdout, "%s  %10d  %s\n", e.ModTime.Format(time.RFC3339), e.Size, key)
	}
	fmt.Fprintf(stdout, "%d entries, %d bytes\n", len(entries), total)
	return nil
}

func cmdVerify(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	del := fs.Bool("delete", false, "delete entries that fail verification")
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	entries, err := store.ScanDir(dir)
	if err != nil {
		return err
	}
	var corrupt, stale int
	for _, e := range entries {
		if e.Err == nil {
			continue
		}
		kind := "corrupt"
		if errors.Is(e.Err, store.ErrStaleVersion) {
			kind = "stale"
			stale++
		} else {
			corrupt++
		}
		fmt.Fprintf(stdout, "%s: %s: %v\n", kind, e.Name, e.Err)
		if *del {
			if err := os.Remove(filepath.Join(dir, e.Name)); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "%d entries: %d ok, %d corrupt, %d stale-version\n",
		len(entries), len(entries)-corrupt-stale, corrupt, stale)
	if (corrupt > 0 || stale > 0) && !*del {
		return errors.New("verification failed (rerun with -delete to drop bad entries)")
	}
	return nil
}

func cmdGC(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	maxBytes := fs.Int64("max-bytes", 0, "size cap to enforce (0 = the 1 GiB default)")
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	removed, remaining, err := store.GCDir(dir, *maxBytes)
	for _, e := range removed {
		fmt.Fprintf(stdout, "removed %s (%d bytes, last access %s)\n",
			e.Name, e.Size, e.ModTime.Format(time.RFC3339))
	}
	fmt.Fprintf(stdout, "removed %d entries, %d bytes remain\n", len(removed), remaining)
	return err
}

func cmdPrune(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	olderThan := fs.Duration("older-than", 0, "delete entries not accessed for this long (required)")
	dir, err := parseDir(fs, args)
	if err != nil {
		return err
	}
	if *olderThan <= 0 {
		return fmt.Errorf("prune: -older-than must be a positive duration: %w", errUsage)
	}
	removed, err := store.PruneDir(dir, time.Now().Add(-*olderThan))
	for _, e := range removed {
		fmt.Fprintf(stdout, "removed %s (%d bytes, last access %s)\n",
			e.Name, e.Size, e.ModTime.Format(time.RFC3339))
	}
	fmt.Fprintf(stdout, "removed %d entries\n", len(removed))
	return err
}
