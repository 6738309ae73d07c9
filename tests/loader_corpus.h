// Copyright 2026 The MinoanER Authors.
// Corpora for the corpus-loader parity tests (kb_test) and their pinned
// collection digests (golden_checkpoint_test).

#ifndef MINOAN_TESTS_LOADER_CORPUS_H_
#define MINOAN_TESTS_LOADER_CORPUS_H_

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "datagen/lod_generator.h"
#include "gtest/gtest.h"
#include "kb/collection.h"

namespace minoan {
namespace testutil {

/// Entities of the generated loader corpus: its two center files weigh
/// 2-3 MiB each, so the loader splits each into several chunks.
inline constexpr uint32_t kLoaderCloudEntities = 5000;

/// Writes the datagen cloud of the loader parity tests into `dir`.
inline void WriteLoaderCloud(const std::string& dir) {
  datagen::LodCloudConfig config;
  config.seed = 19;
  config.num_real_entities = kLoaderCloudEntities;
  auto cloud = datagen::GenerateLodCloud(config);
  ASSERT_TRUE(cloud.ok());
  ASSERT_TRUE(cloud->WriteTo(dir).ok());
}

/// Writes a small hand-made corpus covering what the N-Triples scanner
/// and the KB builder must treat alike on every loading path: string and
/// IRI escapes (\u and \U included), blank nodes (one label reused by two
/// KBs), language tags and datatypes, CRLF endings, comments and blank
/// lines, malformed lines, a file with no final newline, a Turtle file, a
/// file without triples, a file the loader ignores, and sameAs links.
inline void WriteHandCorpus(const std::string& dir) {
  const auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << text;
  };
  write("a-center.nt",
        "# kb a: CRLF endings, escapes, malformed lines\r\n"
        "<http://a.org/r/crete> <http://a.org/v/name> "
        "\"Crete \\\"the island\\\"\\tof Minos\"@en .\r\n"
        "<http://a.org/r/crete> <http://a.org/v/capital> "
        "<http://a.org/r/heraklion> .\r\n"
        "<http://a.org/r/crete> <http://a.org/v/alt> "
        "\"Kr\\u00EDti \\U0001F3DD\"@el .\r\n"
        "<http://a.org/r/heraklion> <http://a.org/v/name> \"Heraklion\" .\r\n"
        "<http://a.org/r/heraklion> <http://a.org/v/founded> "
        "\"0824\"^^<http://www.w3.org/2001/XMLSchema#integer> .\r\n"
        "<http://a.org/r/heraklion> <http://www.w3.org/2002/07/owl#sameAs> "
        "<http://b.org/place/heraklion> .\r\n"
        "THIS LINE IS NOT N-TRIPLES\r\n"
        "<http://a.org/r/knossos\\u0031> <http://a.org/v/name> "
        "\"Knossos\\\\palace\" .\r\n"
        "_:site <http://a.org/v/name> \"Phaistos disc\" .\r\n"
        "_:site <http://a.org/v/near> <http://a.org/r/knossos1> .\r\n"
        "<http://a.org/r/crete> <http://a.org/v/has> _:site .\r\n"
        "\r\n"
        "<http://a.org/r/heraklion> <http://a.org/v/sea> "
        "<http://external.org/mediterranean> . # trailing comment\r\n"
        "<http://a.org/r/crete> <http://a.org/v/bad> \"unterminated .\r\n"
        "<http://a.org/r/crete> <http://a.org/v/name> "
        "\"Crete \\\"the island\\\"\\tof Minos\"@en .\r\n"
        "<http://a.org/r/crete>\t<http://a.org/v/dt> "
        "\"x\"^^<http://a.org/t/\\u0074ype> .\r\n");
  write("b-periphery.nt",
        "<http://b.org/place/heraklion> <http://b.org/p/label> "
        "\"Heraklion city\"@en-GB .\n"
        "<http://b.org/place/knossos> <http://b.org/p/label> "
        "\"Knossos palace\" .\n"
        "<http://b.org/place/heraklion> <http://b.org/p/near> "
        "<http://b.org/place/knossos> .\n"
        "<http://b.org/place/heraklion> "
        "<http://www.w3.org/2002/07/owl#sameAs> <http://a.org/r/heraklion> .\n"
        "_:site <http://b.org/p/label> \"Phaistos\" .\n"
        "<http://b.org/place/knossos> "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://b.org/class/Palace> .\n"
        "<http://b.org/place/knossos> <http://b.org/p/pop> "
        "\"12\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
        "<http://b.org/place/knossos> <http://b.org/p/bad> <no space> .\n"
        "<http://b.org/place/heraklion> <http://b.org/p/note> "
        "\"line\\nbreak \\u00e9\" .");
  write("c-turtle.ttl",
        "@prefix c: <http://c.org/r/> .\n"
        "@prefix v: <http://c.org/v/> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "c:heraklion v:name \"Iraklio\"@el ; v:near c:knossos ;\n"
        "    owl:sameAs <http://a.org/r/heraklion> .\n"
        "c:knossos a v:Site ; v:name \"Knossos\" , \"Cnossus\" .\n");
  write("d-empty.nt", "# no triples here\n\n");
  write("notes.txt", "<http://x/s> <http://x/p> \"ignored\" .\n");
}

/// The Save bytes of `collection`.
inline std::string SavedBytes(const EntityCollection& collection) {
  std::ostringstream out;
  EXPECT_TRUE(collection.Save(out).ok());
  return out.str();
}

}  // namespace testutil
}  // namespace minoan

#endif  // MINOAN_TESTS_LOADER_CORPUS_H_
