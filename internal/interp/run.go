package interp

import (
	"fmt"

	"clgen/internal/clc"
)

// Run launches the named kernel over the NDRange described by cfg.
//
// Arguments correspond positionally to the kernel's parameters: pointer
// parameters take PtrValue arguments backed by Buffers (the caller's
// "device memory"), value parameters take scalar/vector Values. __local
// pointer parameters take a PtrValue whose Buffer acts as a size template:
// each work-group receives its own zeroed copy.
//
// Work-groups execute one after another. Within a group, work-items run
// sequentially; kernels whose call graph can reach barrier() run in
// deterministic lockstep phases instead (one goroutine per work-item,
// resumed round-robin), so barrier semantics hold without data races.
func (env *Env) Run(name string, args []Value, cfg RunConfig) (*Profile, error) {
	fd, err := env.Kernel(name)
	if err != nil {
		return nil, err
	}
	fn := env.funcs[name]
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(args) != len(fd.Params) {
		return nil, fmt.Errorf("interp: kernel %q takes %d arguments, got %d", name, len(fd.Params), len(args))
	}
	// Identify __local pointer parameters (per-group allocation).
	localTemplate := map[int]int{} // param index -> scalar slots
	for i, p := range fd.Params {
		pt, ok := p.Type.(*clc.PointerType)
		if !ok {
			continue
		}
		if pt.Space == clc.Local {
			if !args[i].IsPointer() {
				return nil, fmt.Errorf("interp: kernel %q parameter %d (__local) needs a buffer template", name, i)
			}
			localTemplate[i] = args[i].Ptr.Buf.Len()
		} else if !args[i].IsPointer() {
			return nil, fmt.Errorf("interp: kernel %q parameter %d needs a buffer argument", name, i)
		}
	}

	prof := &Profile{}
	budget := cfg.MaxSteps
	defer func() { prof.Steps = cfg.MaxSteps - budget }()
	ngrp := [3]int64{
		int64(cfg.GlobalSize[0] / cfg.LocalSize[0]),
		int64(cfg.GlobalSize[1] / cfg.LocalSize[1]),
		int64(cfg.GlobalSize[2] / cfg.LocalSize[2]),
	}
	lockstep := env.usesBarrier[name]
	// One frame serves every work-item of the sequential groups.
	seq := newFrame(ngrp, &cfg, prof, &budget)

	for gz := int64(0); gz < ngrp[2]; gz++ {
		for gy := int64(0); gy < ngrp[1]; gy++ {
			for gx := int64(0); gx < ngrp[0]; gx++ {
				groupArgs := make([]Value, len(args))
				copy(groupArgs, args)
				for i, slots := range localTemplate {
					buf := NewBuffer(args[i].Ptr.Buf.Kind, slots, clc.Local)
					groupArgs[i] = PtrValue(&Pointer{Buf: buf, Off: 0, Elem: args[i].Ptr.Elem})
				}
				grp := [3]int64{gx, gy, gz}
				groupLocals := make([]*Buffer, env.nGroupLocals)
				var err error
				if lockstep {
					err = runGroupLockstep(fn, groupArgs, grp, groupLocals, ngrp, &cfg, prof, &budget)
				} else {
					seq.groupLocals = groupLocals
					err = localIter(&cfg, func(lid [3]int64) error {
						seq.setIDs(grp, lid)
						prof.WorkItems++
						_, err := seq.call(fn, groupArgs)
						return err
					})
				}
				if err != nil {
					return prof, err
				}
			}
		}
	}
	return prof, nil
}

// localIter invokes fn for every local id of a group, x-fastest.
func localIter(cfg *RunConfig, fn func(lid [3]int64) error) error {
	for lz := int64(0); lz < int64(cfg.LocalSize[2]); lz++ {
		for ly := int64(0); ly < int64(cfg.LocalSize[1]); ly++ {
			for lx := int64(0); lx < int64(cfg.LocalSize[0]); lx++ {
				if err := fn([3]int64{lx, ly, lz}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// newFrame returns a frame for one launch, not yet pointed at a work-item.
func newFrame(ngrp [3]int64, cfg *RunConfig, prof *Profile, budget *int64) *frame {
	f := &frame{ngrp: ngrp, prof: prof, budget: budget}
	for d := 0; d < 3; d++ {
		f.gsize[d] = int64(cfg.GlobalSize[d])
		f.lsize[d] = int64(cfg.LocalSize[d])
	}
	return f
}

// setIDs points the frame at one work-item.
func (f *frame) setIDs(grp, lid [3]int64) {
	f.grp, f.lid = grp, lid
	for d := 0; d < 3; d++ {
		f.gid[d] = grp[d]*f.lsize[d] + lid[d]
	}
}

// lockstep execution: one goroutine per work-item of the group, resumed in
// local-id order between barrier phases.
type wiReport struct {
	barrier bool
	err     error
}

type wiHandle struct {
	resume chan struct{}
	report chan wiReport
	done   bool
}

func runGroupLockstep(fn *function, args []Value, grp [3]int64, groupLocals []*Buffer, ngrp [3]int64, cfg *RunConfig, prof *Profile, budget *int64) error {
	n := cfg.LocalSize[0] * cfg.LocalSize[1] * cfg.LocalSize[2]
	items := make([]*wiHandle, 0, n)
	cancel := false

	_ = localIter(cfg, func(lid [3]int64) error {
		h := &wiHandle{resume: make(chan struct{}), report: make(chan wiReport)}
		items = append(items, h)
		f := newFrame(ngrp, cfg, prof, budget)
		f.setIDs(grp, lid)
		f.cancel = &cancel
		f.groupLocals = groupLocals
		f.yield = func() error {
			h.report <- wiReport{barrier: true}
			<-h.resume
			if cancel {
				return errCancelled
			}
			return nil
		}
		prof.WorkItems++
		go func() {
			<-h.resume
			var err error
			if !cancel {
				_, err = f.call(fn, args)
			}
			h.report <- wiReport{err: err}
		}()
		return nil
	})

	var firstErr error
	live := len(items)
	for live > 0 {
		barriers, finished := 0, 0
		for _, h := range items {
			if h.done {
				continue
			}
			h.resume <- struct{}{}
			r := <-h.report
			if r.err != nil && r.err != errCancelled && firstErr == nil {
				firstErr = r.err
				cancel = true
			}
			if r.barrier {
				barriers++
			} else {
				h.done = true
				finished++
				live--
			}
		}
		if firstErr == nil && barriers > 0 && finished > 0 {
			firstErr = ErrBarrierDivergence
			cancel = true
		}
	}
	return firstErr
}
