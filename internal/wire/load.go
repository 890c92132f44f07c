package wire

import (
	"fmt"
	"os"

	"fmsa/internal/ir"
	"fmsa/internal/par"
)

// DecodeAny parses data as fmir when it begins with the magic bytes and as
// textual IR otherwise. name becomes the module name for textual IR
// (mirroring ir.ParseModule); fmir modules carry their own name. workers
// bounds parallel body decode for the binary path and is ignored for text.
func DecodeAny(name string, data []byte, workers int) (*ir.Module, error) {
	if IsFMIR(data) {
		return Decode(data, Options{Workers: workers})
	}
	return ir.ParseModule(name, string(data))
}

// LoadFile reads one module file in either format, sniffing the magic.
func LoadFile(path string, workers int) (*ir.Module, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := DecodeAny(path, data, workers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// LoadFiles loads module files concurrently on up to workers goroutines
// and returns the modules in argument order, so multi-file corpora ingest
// deterministically regardless of scheduling. With several files the
// parallelism budget goes to the file level (each file decodes its bodies
// serially); a single file gets the full budget for body decode instead.
func LoadFiles(paths []string, workers int) ([]*ir.Module, error) {
	workers = par.Workers(workers)
	if len(paths) == 1 {
		m, err := LoadFile(paths[0], workers)
		if err != nil {
			return nil, err
		}
		return []*ir.Module{m}, nil
	}
	mods := make([]*ir.Module, len(paths))
	errs := make([]error, len(paths))
	par.For(len(paths), workers, func(i int) {
		mods[i], errs[i] = LoadFile(paths[i], 1)
	})
	// Report the first failure in argument order for deterministic output.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mods, nil
}
