#include "blocking/char_blocking.h"

#include <algorithm>
#include <deque>

#include "blocking/sharded_blocking.h"
#include "util/interner.h"

namespace minoan {

namespace {

/// Appends the sorted-unique q-gram strings of one entity's tokens.
void EntityGrams(const EntityCollection& collection, EntityId e, uint32_t q,
                 std::vector<std::string>& out) {
  out.clear();
  for (uint32_t tok : collection.entity(e).tokens) {
    const std::string_view token = collection.tokens().View(tok);
    if (token.size() <= q) {
      out.emplace_back(token);
      continue;
    }
    for (size_t i = 0; i + q <= token.size(); ++i) {
      out.emplace_back(token.substr(i, q));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Emits the sliding-window blocks over a key-sorted (key, entity) record
/// stream (the external path). Holds at most window_size + 1 entities: the
/// current window plus one record of lookahead to decide whether the window
/// reaches the end of the stream. Reproduces the in-memory window loop —
/// same starts, same window contents — without the global sorted list ever
/// existing.
void SlideWindowOverStream(extmem::ShuffleSource& source, size_t w,
                           BlockSink& sink) {
  std::deque<EntityId> buf;
  bool exhausted = false;
  const auto fill = [&](size_t want) {
    std::string_view record;
    while (!exhausted && buf.size() < want) {
      if (!source.Next(record)) {
        exhausted = true;
        break;
      }
      buf.push_back(extmem::ReadU32Le(extmem::RecordPayload(record)));
    }
  };
  std::vector<EntityId> window;
  for (;;) {
    fill(w + 1);
    // In-memory loop condition `start + 1 < N`: at least two records remain.
    if (buf.size() < 2) break;
    const size_t len = std::min(w, buf.size());
    window.assign(buf.begin(), buf.begin() + len);
    sink.Add(window);
    // In-memory `end == N` break: the window consumed every record left.
    if (buf.size() <= w) break;
    for (size_t i = 0; i < w / 2; ++i) buf.pop_front();
  }
}

}  // namespace

void QGramBlocking::BuildInto(const EntityCollection& collection,
                              ThreadPool* pool, BlockSink& sink) const {
  const uint32_t q = std::max<uint32_t>(1, options_.q);
  const uint32_t n = collection.num_entities();
  // Pass 1: global q-gram document frequencies. Each chunk counts into a
  // local interner + dense count array (no per-gram node allocation), then
  // the locals fold into one global interner in chunk order — global gram
  // ids are first-seen-in-chunk-order, so the fold (integer sums over a
  // dense array) is identical at every thread count.
  struct ChunkCounts {
    StringInterner grams;
    std::vector<uint32_t> counts;
  };
  std::vector<ChunkCounts> chunk_df(NumChunks(n, kBlockingChunkEntities));
  RunChunkedTasks(pool, n, kBlockingChunkEntities,
                  [&](size_t c, size_t begin, size_t end) {
                    ChunkCounts& local = chunk_df[c];
                    std::vector<std::string> grams;
                    for (size_t e = begin; e < end; ++e) {
                      EntityGrams(collection, static_cast<EntityId>(e), q,
                                  grams);
                      for (const std::string& gram : grams) {
                        const uint32_t id = local.grams.Intern(gram);
                        if (id >= local.counts.size()) {
                          local.counts.resize(id + 1, 0);
                        }
                        ++local.counts[id];
                      }
                    }
                  });
  StringInterner gram_ids;
  std::vector<uint32_t> df;
  for (const ChunkCounts& local : chunk_df) {
    for (uint32_t i = 0; i < local.grams.size(); ++i) {
      const uint32_t id = gram_ids.Intern(local.grams.View(i));
      if (id >= df.size()) df.resize(id + 1, 0);
      df[id] += local.counts[i];
    }
  }

  // Pass 2: keep the rarest grams per entity (they carry the signal), build
  // postings through the sharded core. `gram_ids`/`df` are frozen —
  // Find() is a const read, safe across workers. The DF table itself is
  // vocabulary-bounded and stays in memory under the budget; only the
  // (gram, entity) postings stream.
  const auto emit = [&](EntityId e, std::vector<std::string>& keys) {
    EntityGrams(collection, e, q, keys);
    if (options_.max_grams_per_entity > 0 &&
        keys.size() > options_.max_grams_per_entity) {
      std::partial_sort(
          keys.begin(), keys.begin() + options_.max_grams_per_entity,
          keys.end(),
          [&](const std::string& a, const std::string& b) {
            // Every gram was counted in pass 1, so Find never misses.
            const uint32_t da = df[gram_ids.Find(a)];
            const uint32_t db = df[gram_ids.Find(b)];
            return da != db ? da < db : a < b;  // rarest first
          });
      keys.resize(options_.max_grams_per_entity);
    }
  };
  const auto hash = [](const std::string& s) { return Fnv1a64(s); };
  const uint64_t df_cap = static_cast<uint64_t>(options_.max_df_fraction *
                                                collection.num_entities());
  // Postings arrive in deterministic sorted-key order on both paths.
  const auto consume = [&](const std::string& /*key*/,
                           std::vector<EntityId>& entities) {
    if (entities.size() < options_.min_df) return;
    if (df_cap > 0 && entities.size() > df_cap) return;
    sink.Add(entities);
  };
  BuildShardedPostings<std::string>(n, pool, emit, hash, memory_or_null(),
                                    consume);
}

void SortedNeighborhoodBlocking::BuildInto(const EntityCollection& collection,
                                           ThreadPool* pool,
                                           BlockSink& sink) const {
  // Build (key, entity) pairs: each entity contributes its rarest tokens.
  // Extraction fans out over fixed entity chunks; a global sort by key
  // fixes one total order, so chunk concatenation order is irrelevant.
  //
  // With a memory budget the global sort becomes an EXTERNAL single-stream
  // merge sort: the records flow through ONE spilling sink (windows span
  // arbitrary key-hash boundaries, so key-hashed sharding is not an
  // option), whose merged stream is the stable key sort of the sequential
  // arrival order (chunk asc, entity asc) — exactly std::sort's
  // (key, entity) order, since an entity never emits one key twice. The
  // window then slides over the stream with O(window) memory.
  const uint32_t n = collection.num_entities();
  const size_t w = std::max<uint32_t>(2, options_.window_size);

  static obs::Counter& chunks_counter =
      obs::MetricsRegistry::Default().counter("blocking.chunks");
  static obs::Counter& emissions_counter =
      obs::MetricsRegistry::Default().counter("blocking.emissions");
  static obs::Counter& postings_counter =
      obs::MetricsRegistry::Default().counter("blocking.postings");
  chunks_counter.Add(NumChunks(n, kBlockingChunkEntities));

  // Rarest `keys_per_entity` token strings of one entity, by (df, id).
  const auto entity_keys = [&](EntityId e, std::vector<uint32_t>& toks) {
    toks = collection.entity(e).tokens;
    std::sort(toks.begin(), toks.end(), [&](uint32_t a, uint32_t b) {
      const uint32_t da = collection.TokenDf(a), db = collection.TokenDf(b);
      return da != db ? da < db : a < b;
    });
    toks.resize(std::min<size_t>(options_.keys_per_entity, toks.size()));
  };

  // A window block is the analog of one merged posting here; both paths
  // emit the same count so obs parity holds across budgets.
  uint64_t windows_emitted = 0;
  class CountingSink : public BlockSink {
   public:
    CountingSink(BlockSink& inner, uint64_t& count)
        : inner_(&inner), count_(&count) {}
    void Add(std::vector<EntityId>& entities) override {
      ++*count_;
      inner_->Add(entities);
    }

   private:
    BlockSink* inner_;
    uint64_t* count_;
  };
  CountingSink counting(sink, windows_emitted);

  if (memory_or_null() != nullptr) {
    extmem::RunSpilledShuffle(
        pool, n, kBlockingChunkEntities, /*num_shards=*/1, *memory_or_null(),
        [&](size_t /*chunk*/, size_t begin, size_t end, const auto& route) {
          std::vector<uint32_t> toks;
          std::string record;
          uint64_t emitted = 0;
          for (EntityId e = static_cast<EntityId>(begin);
               e < static_cast<EntityId>(end); ++e) {
            entity_keys(e, toks);
            for (const uint32_t tok : toks) {
              extmem::EncodeKey(std::string(collection.tokens().View(tok)),
                                record);
              extmem::AppendU32Le(record, e);
              route(0, record);
              ++emitted;
            }
          }
          emissions_counter.Add(emitted);
        },
        [&](uint32_t /*shard*/, extmem::ShuffleSource& source) {
          SlideWindowOverStream(source, w, counting);
        });
    postings_counter.Add(windows_emitted);
    return;
  }

  std::vector<std::vector<std::pair<std::string, EntityId>>> chunk_keyed(
      NumChunks(n, kBlockingChunkEntities));
  RunChunkedTasks(pool, n, kBlockingChunkEntities, [&](size_t c, size_t begin,
                                                       size_t end) {
    std::vector<uint32_t> toks;
    for (size_t idx = begin; idx < end; ++idx) {
      const EntityId e = static_cast<EntityId>(idx);
      entity_keys(e, toks);
      for (const uint32_t tok : toks) {
        chunk_keyed[c].emplace_back(
            std::string(collection.tokens().View(tok)), e);
      }
    }
    emissions_counter.Add(chunk_keyed[c].size());
  });
  std::vector<std::pair<std::string, EntityId>> keyed =
      FlattenInOrder(chunk_keyed);
  std::sort(keyed.begin(), keyed.end());

  // Slide a window over the sorted key list; each window is one block.
  std::vector<EntityId> window;
  for (size_t start = 0; start + 1 < keyed.size(); start += w / 2) {
    const size_t end = std::min(keyed.size(), start + w);
    window.clear();
    for (size_t i = start; i < end; ++i) window.push_back(keyed[i].second);
    counting.Add(window);
    if (end == keyed.size()) break;
  }
  postings_counter.Add(windows_emitted);
}

}  // namespace minoan
