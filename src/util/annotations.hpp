// Source annotations consumed by the static checkers (tools/simcheck).
//
// MNS_HOT marks a function as an *audited allocation boundary* on the
// simulator's hot paths: its own body is allowed to allocate (slab refill,
// amortized vector growth, pooled-frame handoff) because that allocation
// has been reviewed and is amortized or warm-up-only — but simcheck still
// descends into its callees, so the exemption does not leak downward.
// Annotate the narrowest function that owns the allocation, never a whole
// step function. simcheck reads the MNS_HOT token from the source, so the
// macro expands to nothing.
#pragma once

#define MNS_HOT
