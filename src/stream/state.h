// Deterministic snapshot/restore of the streaming scoring state — the
// `paai.state.v1` JSON document.
//
// A snapshot captures everything apply() can mutate: the engine
// configuration, the active score table's counters, the derived counters
// (packets sent, delivered, events seen/applied), and the batch
// conviction records observed so far. Integer counters are emitted as
// decimal strings (like the event stream's a/b fields) so 64-bit values
// survive double-typed JSON parsers; doubles go through json_number's
// %.17g, which round-trips bit-exactly. Consequence: serve → snapshot →
// restore → continue produces the same final state as an uninterrupted
// pass over the same events — tests/stream_test.cc and the check.sh serve
// leg hold the repo to that.
//
// Schema (paai.state.v1):
//   {
//     "schema": "paai.state.v1",
//     "protocol": <ProtocolKind int>, "protocol_name": "<display>",
//     "links": <int>, "threshold": <double>,
//     "blame": "<BlameSpec::to_string()>",
//     "events_seen": "<u64>", "events_applied": "<u64>",
//     "packets_sent": "<u64>", "delivered": "<u64>", "run_ended": <bool>,
//     "recorded_convictions": [
//       {"link": <int>, "packets": "<u64>", "observations": "<u64>",
//        "theta": <double>, "line": "<u64>"}, ...],
//     "table":
//       {"kind": "onion", "s": ["<u64>", ...], "n": "<u64>",
//        "probes": "<u64>", "window": {"bins": [...], <ledger>}}
//     | {"kind": "prefix", "s": [...], "sel_n": [...], "sel_f": [...],
//        "data_packets": "<u64>", "probes": "<u64>",
//        "window": {"sel_n_bins": [...], "sel_f_bins": [...], <ledger>}}
//     | {"kind": "fl", "acc": [<double>, ...],
//        "intervals_reported": "<u64>", "intervals_lost": "<u64>",
//        "window": {"counts": [<double>, ...], <ledger>}}
//   }
//   <ledger> = "v": 2, "w": "<u64>", "completed": "<u64>",
//              "cur_streak": [...], "max_streak": [...], "flagrant": [...],
//              "max_theta_w": [<double>, ...]
//
// The "table" object is not hand-written per family: it is the table's
// own state walk (ScoreTable/Paai2ScoreTable/FlScoreTable::visit, via
// Scorer::visit), written by obs::JsonFieldWriter and read
// back by obs::JsonFieldReader, the strict reader every persisted JSON
// document goes through. Loading is fail-closed on every field: every
// member above is required ("protocol_name" must be the display name of
// "protocol": it configures nothing, but a snapshot whose two protocol
// members disagree is corrupt), any other member anywhere in the
// document is rejected, every number must be finite, every vector must
// have the size the configured table was constructed with, "w" must
// equal the blame spec's window width and "v" must be 2 (a v1 ledger,
// which carried a per-link "recent" ring, is refused by its version).
// The first violation is reported with its member path
// ("table.window.v"); nothing is half-applied or defaulted.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "stream/engine.h"

namespace paai::stream {

inline constexpr std::string_view kStateSchema = "paai.state.v1";

/// Writes the engine's state as one paai.state.v1 document (no trailing
/// newline). The engine must be configured.
void write_state(std::ostream& os, const ScoreEngine& engine);

std::string state_to_string(const ScoreEngine& engine);

/// Parses a paai.state.v1 document and installs it into `engine`
/// (reconfiguring it from the document). Returns false and a description
/// via `error` on schema violations; the engine is left unusable
/// (unconfigured or partially restored) on failure — discard it.
bool load_state(std::string_view json, ScoreEngine* engine,
                std::string* error = nullptr);

}  // namespace paai::stream
