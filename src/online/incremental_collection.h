// Copyright 2026 The MinoanER Authors.
// Grouping of a triple stream into entity descriptions for online ingest.
//
// The online engine (online/online_resolver.h) ingests one complete entity
// description at a time; a parsed feed arrives as a flat triple list.

#ifndef MINOAN_ONLINE_INCREMENTAL_COLLECTION_H_
#define MINOAN_ONLINE_INCREMENTAL_COLLECTION_H_

#include <vector>

#include "rdf/term.h"

namespace minoan {
namespace online {

/// Splits a triple list into per-subject entity bundles, first appearance
/// first — the order a stream delivers complete descriptions in. Shared by
/// the server's Ingest, benches, and tests so grouping semantics cannot
/// diverge.
std::vector<std::vector<rdf::Triple>> GroupBySubject(
    const std::vector<rdf::Triple>& triples);

}  // namespace online
}  // namespace minoan

#endif  // MINOAN_ONLINE_INCREMENTAL_COLLECTION_H_
