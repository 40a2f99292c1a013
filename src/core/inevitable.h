// Inevitable (irrevocable) transactions — the §3.4 alternative to
// transactional wrappers that the paper evaluates and rejects: "At most
// one transaction can be inevitable at any given moment in time", so
// I/O-performing sections serialize even across independent devices.
//
// We implement it anyway, for two reasons: (i) completeness — a section
// that truly cannot buffer its effect (foreign code with opaque side
// effects) needs an escape hatch; (ii) the ablation bench
// (bench_ablation_inevitable) reproduces the paper's scalability
// argument by measuring wrapper-based I/O against inevitable I/O.
//
// Semantics:
//   - become_inevitable() takes THE serialization token
//     (core/degrade.h), which escalated sections share, so at most one
//     section is inevitable or escalated at a time.
//   - while inevitable, the section cannot be chosen as a deadlock
//     victim and abort_and_restart() on it is a programming error;
//     external effects may be performed directly.
//   - the token releases automatically when the section commits (at a
//     split or the section's end).
#pragma once

#include "core/fwd.h"

namespace sbd::core {

// Makes the current atomic section inevitable. If the token is busy the
// section aborts, waits for the token holding no locks, and re-executes
// from its start. Idempotent within a section.
void become_inevitable();

// True while the calling thread's active section is inevitable.
bool is_inevitable();

// Number of sections made inevitable so far (tests/benches).
uint64_t inevitable_acquisitions();

}  // namespace sbd::core
