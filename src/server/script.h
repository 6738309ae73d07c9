// Copyright 2026 The MinoanER Authors.
// RunScript: the one command interpreter over the resolution service.
//
// `minoan connect` feeds it a script (or stdin) against a Client — one
// connected to a running daemon, or to a server the CLI starts in-process
// when no --port is given. Both transports run this same interpreter over
// the same Server, so one script prints the same bytes either way.
//
// Grammar (one command per line; blank lines and lines starting with '#'
// are skipped; <name> is a client-side handle bound by `create`):
//
//   create <name> <batch|online> <source|-> <threshold> [tenant] [seeds]
//   step <name> <budget>          batch: spend budget comparisons (0 = all)
//   resolve <name> <budget>       online: spend budget comparisons
//   matches <name>                the cumulative match log
//   links <name> [file|-]         owl:sameAs links, to a file or the output
//   checkpoint <name>             force a server-side checkpoint
//   close <name>
//   ingest <name> <kb> <file>     send a client-local N-Triples file
//   query <name> <entity> <k>     top-k candidates of an online entity
//   stats [--full]                session counts (--full: whole registry)
//   ping
//   sleep <seconds>               idle, e.g. past --evict-after
//
// Every numeric operand must be a whole, in-range number (cli::ParseUint /
// ParseDouble). The first failing command stops the script and its Status
// is returned; a failing command prints nothing.

#ifndef MINOAN_SERVER_SCRIPT_H_
#define MINOAN_SERVER_SCRIPT_H_

#include <istream>
#include <ostream>

#include "server/client.h"
#include "util/status.h"

namespace minoan {
namespace server {

/// Runs every command of `in` against `client`, printing one reply per
/// command to `out`. Stops at the first failing command and returns its
/// Status.
Status RunScript(Client& client, std::istream& in, std::ostream& out);

}  // namespace server
}  // namespace minoan

#endif  // MINOAN_SERVER_SCRIPT_H_
