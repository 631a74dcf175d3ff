// dev_verify - run the symbolic verifier (src/verify/) over a built-in
// datatype corpus and the engine pipeline model, without executing a
// single copy.
//
// For every corpus type it proves the tree/program byte-map equivalence
// obligations (closed over all counts), then converts the
// type through the production DevCursor (core::convert_all) for several
// (count, unit_bytes) points and proves the resulting DEV unit list
// byte-exact. It also proves the engine's fragment pipeline hazard-free
// in each modeled configuration.
//
// Seeded mutation modes (--mutate) corrupt one conversion result (or the
// pipeline DAG) the way a real compiler/engine bug would, and must make
// the run fail with the matching obligation named:
//
//   dropped_unit   -> dev_unit_count     (a unit silently lost)
//   shifted_disp   -> dev_nc_exact       (source displacement off by one)
//   overlap_pk     -> dev_pk_exact       (two units pack to the same bytes)
//   reorder_edge   -> pipeline_hazard_free (desc-slot WAR guard dropped)
//   dropped_credit -> pipeline_hazard_free (stream-triggered send-ring
//                     credit event dropped: packs overwrite in-flight
//                     GET sources)
//
// Usage:
//   dev_verify [--json-out FILE] [--mutate MODE] [--seed N]
//
// Output: a gpuddt-verify-v1 JSON document (every report, obligation by
// obligation) to --json-out or stdout, plus a one-line summary on
// stderr. Exit 0 iff every obligation proved.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "core/dev.h"
#include "core/layouts.h"
#include "mpi/datatype.h"
#include "obs/json.h"
#include "verify/pipeline.h"
#include "verify/verifier.h"

namespace {

using gpuddt::mpi::Datatype;
using gpuddt::mpi::DatatypePtr;
using gpuddt::verify::Report;

struct Case {
  std::string name;
  DatatypePtr dt;
};

DatatypePtr dbl() {
  return Datatype::primitive(gpuddt::mpi::Primitive::kDouble);
}

/// Seeded irregular type: a few nesting levels over mixed constructors,
/// mirroring the shapes tests/test_helpers.h random_datatype produces.
DatatypePtr irregular(std::uint64_t seed, int depth = 0) {
  std::mt19937 rng(static_cast<std::uint32_t>(seed * 2654435761u + depth));
  std::uniform_int_distribution<int> kind(0, depth >= 2 ? 1 : 6);
  std::uniform_int_distribution<std::int64_t> small(1, 4);
  switch (kind(rng)) {
    default:
    case 0:
      return dbl();
    case 1:
      return Datatype::contiguous(small(rng), irregular(seed + 11, depth + 1));
    case 2: {
      const auto bl = small(rng);
      return Datatype::vector(small(rng) + 1, bl, bl + small(rng),
                              irregular(seed + 23, depth + 1));
    }
    case 3: {
      const DatatypePtr c = irregular(seed + 37, depth + 1);
      const std::int64_t bl = small(rng);
      // Byte stride covers the block: sources in this simulator never
      // self-overlap (mirrors tests/test_helpers.h random_datatype).
      return Datatype::hvector(small(rng) + 1, bl,
                               c->extent() * (bl + small(rng)), c);
    }
    case 4: {
      const std::int64_t lens[] = {small(rng), small(rng)};
      const std::int64_t displs[] = {0, lens[0] + small(rng)};
      return Datatype::indexed(lens, displs, irregular(seed + 41, depth + 1));
    }
    case 5: {
      const std::int64_t displs[] = {0, 3 + small(rng), 9 + small(rng)};
      return Datatype::indexed_block(small(rng), displs,
                                     irregular(seed + 53, depth + 1));
    }
    case 6: {
      const DatatypePtr a = irregular(seed + 61, depth + 1);
      const DatatypePtr b = irregular(seed + 71, depth + 1);
      const std::int64_t lens[] = {1, small(rng)};
      const std::int64_t displs[] = {0, a->true_extent() + 8 * small(rng)};
      const DatatypePtr types[] = {a, b};
      return Datatype::struct_type(lens, displs, types);
    }
  }
}

/// Every datatype constructor plus the paper's evaluation layouts.
std::vector<Case> corpus(std::uint64_t seed) {
  std::vector<Case> out;
  out.push_back({"primitive_double", dbl()});
  out.push_back({"contiguous_16", Datatype::contiguous(16, dbl())});
  out.push_back({"vector_8x4s16", Datatype::vector(8, 4, 16, dbl())});
  out.push_back(
      {"hvector_6x3s100", Datatype::hvector(6, 3, 100, dbl())});
  {
    const std::int64_t lens[] = {3, 1, 4};
    const std::int64_t displs[] = {0, 5, 9};
    out.push_back({"indexed_3", Datatype::indexed(lens, displs, dbl())});
  }
  {
    const std::int64_t lens[] = {2, 2};
    const std::int64_t displs[] = {0, 40};
    out.push_back({"hindexed_2", Datatype::hindexed(lens, displs, dbl())});
  }
  {
    const std::int64_t displs[] = {0, 4, 9, 15};
    out.push_back(
        {"indexed_block_4", Datatype::indexed_block(2, displs, dbl())});
  }
  {
    const DatatypePtr types[] = {
        Datatype::primitive(gpuddt::mpi::Primitive::kChar), dbl()};
    const std::int64_t lens[] = {3, 2};
    const std::int64_t displs[] = {0, 8};
    out.push_back({"struct_2", Datatype::struct_type(lens, displs, types)});
  }
  {
    const std::int64_t sizes[] = {8, 10};
    const std::int64_t subsizes[] = {3, 4};
    const std::int64_t starts[] = {2, 1};
    out.push_back(
        {"subarray_2d", Datatype::subarray(sizes, subsizes, starts, dbl())});
  }
  {
    const std::int64_t gsizes[] = {12, 12};
    const Datatype::Distrib distribs[] = {Datatype::Distrib::kCyclic,
                                          Datatype::Distrib::kBlock};
    const std::int64_t dargs[] = {2, Datatype::kDefaultDarg};
    const std::int64_t psizes[] = {2, 2};
    out.push_back({"darray_cyclic_block",
                   Datatype::darray(4, 1, gsizes, distribs, dargs, psizes,
                                    dbl())});
  }
  out.push_back(
      {"resized_vector",
       Datatype::resized(Datatype::vector(4, 2, 5, dbl()), 0, 50 * 8)});
  // The paper's evaluation layouts (core/layouts.h).
  out.push_back({"submatrix_32x16", gpuddt::core::submatrix_type(32, 16, 64)});
  out.push_back(
      {"lower_triangular_32", gpuddt::core::lower_triangular_type(32, 32)});
  out.push_back(
      {"upper_triangular_24", gpuddt::core::upper_triangular_type(24, 24)});
  out.push_back(
      {"stair_triangular_32_8", gpuddt::core::stair_triangular_type(32, 32, 8)});
  out.push_back({"transpose_16", gpuddt::core::transpose_type(16, 16)});
  for (int i = 0; i < 8; ++i) {
    out.push_back({"irregular_" + std::to_string(i), irregular(seed + i)});
  }
  return out;
}

enum class Mutate { kNone, kDroppedUnit, kShiftedDisp, kOverlapPk,
                    kReorderEdge, kDroppedCredit };

/// Corrupt one unit list the way a conversion bug would.
void mutate_units(Mutate m, std::mt19937& rng,
                  std::vector<gpuddt::core::CudaDevDist>& units) {
  if (units.size() < 2) return;
  std::uniform_int_distribution<std::size_t> pick(1, units.size() - 1);
  const std::size_t i = pick(rng);
  switch (m) {
    case Mutate::kDroppedUnit:
      units.erase(units.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case Mutate::kShiftedDisp:
      units[i].nc_disp += 1;
      break;
    case Mutate::kOverlapPk:
      units[i].pk_disp = units[i - 1].pk_disp;
      break;
    default:
      break;
  }
}

void append_report(std::string& out, const Report& rep) {
  out += "    {\"subject\": \"" + gpuddt::obs::json::escape(rep.subject) +
         "\",\n     \"certified\": ";
  out += rep.certified() ? "true" : "false";
  out += ",\n     \"obligations\": [";
  bool first = true;
  for (const auto& o : rep.obligations) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      {\"name\": \"" + gpuddt::obs::json::escape(o.name) +
           "\", \"proved\": " + (o.proved ? "true" : "false") +
           ", \"detail\": \"" + gpuddt::obs::json::escape(o.detail) + "\"}";
  }
  out += "\n     ]}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::string mutate_name = "none";
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg.resize(eq);
      has_inline = true;
    }
    const auto value = [&](const char* flag) {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) {
        std::cerr << "dev_verify: " << flag << " needs a value\n";
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (arg == "--json-out") {
      json_out = value("--json-out");
    } else if (arg == "--mutate") {
      mutate_name = value("--mutate");
    } else if (arg == "--seed") {
      seed = std::stoull(value("--seed"));
    } else {
      std::cerr << "usage: dev_verify [--json-out FILE] "
                   "[--mutate none|dropped_unit|shifted_disp|overlap_pk|"
                   "reorder_edge|dropped_credit] [--seed N]\n";
      return 2;
    }
  }
  Mutate mutate = Mutate::kNone;
  if (mutate_name == "dropped_unit") mutate = Mutate::kDroppedUnit;
  else if (mutate_name == "shifted_disp") mutate = Mutate::kShiftedDisp;
  else if (mutate_name == "overlap_pk") mutate = Mutate::kOverlapPk;
  else if (mutate_name == "reorder_edge") mutate = Mutate::kReorderEdge;
  else if (mutate_name == "dropped_credit") mutate = Mutate::kDroppedCredit;
  else if (mutate_name != "none") {
    std::cerr << "dev_verify: unknown --mutate mode '" << mutate_name << "'\n";
    return 2;
  }

  std::mt19937 rng(static_cast<std::uint32_t>(seed));
  std::vector<Report> reports;

  // Datatype + DEV proofs over the corpus, through the production
  // converter at the paper's unit-size floor and two larger budgets.
  const std::int64_t counts[] = {1, 3};
  const std::int64_t unit_sizes[] = {gpuddt::core::kMinUnitBytes, 512, 1024};
  bool mutated_once = false;
  for (const Case& c : corpus(seed)) {
    Report tr = gpuddt::verify::verify_type(*c.dt);
    tr.subject = c.name + ": " + tr.subject;
    reports.push_back(std::move(tr));
    for (const std::int64_t count : counts) {
      for (const std::int64_t s : unit_sizes) {
        auto units = gpuddt::core::convert_all(c.dt, count, s);
        if (!mutated_once && mutate != Mutate::kNone &&
            mutate != Mutate::kReorderEdge &&
            mutate != Mutate::kDroppedCredit && units.size() >= 2) {
          mutate_units(mutate, rng, units);
          mutated_once = true;
        }
        Report dr = gpuddt::verify::verify_dev(*c.dt, count, s, units);
        dr.subject = c.name + ": " + dr.subject;
        reports.push_back(std::move(dr));
      }
    }
  }

  // Pipeline hazard proofs over every modeled engine configuration.
  for (const bool residue : {false, true}) {
    gpuddt::verify::EnginePipelineParams p;
    p.windows = 6;
    p.residue_separate_stream = residue;
    if (mutate == Mutate::kReorderEdge) {
      p.mutate = gpuddt::verify::MutateDag::kDropWarEdge;
    }
    reports.push_back(gpuddt::verify::verify_pipeline(p));
    if (!residue) {
      // Sender + wire + unpack extension (single-stream model only).
      gpuddt::verify::EnginePipelineParams wp;
      wp.windows = 6;
      wp.wire_fragments = 6;
      if (mutate == Mutate::kReorderEdge) {
        wp.mutate = gpuddt::verify::MutateDag::kDropWarEdge;
      }
      reports.push_back(gpuddt::verify::verify_pipeline(wp));
    }
  }
  // Stream-triggered chain shapes (docs/protocols.md): the offloaded
  // pack -> GET -> unpack DAG with both ring depths exercised past reuse,
  // plus an asymmetric-depth shape. The dropped_credit mutation removes
  // the send-ring credit event and must be refuted here.
  {
    struct StShape { int frags; int send_ring; int staging; };
    const StShape shapes[] = {{8, 2, 2}, {8, 3, 2}, {6, 2, 4}};
    for (const StShape& sh : shapes) {
      gpuddt::verify::EnginePipelineParams sp;
      sp.windows = sh.frags;
      sp.wire_fragments = sh.frags;
      sp.stream_triggered = true;
      sp.send_ring_depth = sh.send_ring;
      sp.staging_depth = sh.staging;
      if (mutate == Mutate::kDroppedCredit) {
        sp.mutate = gpuddt::verify::MutateDag::kDropCreditEdge;
      }
      reports.push_back(gpuddt::verify::verify_pipeline(sp));
    }
  }

  std::int64_t proved = 0;
  std::int64_t failed = 0;
  std::string first_failed_name;
  for (const Report& r : reports) {
    for (const auto& o : r.obligations) {
      (o.proved ? proved : failed)++;
      if (!o.proved && first_failed_name.empty()) first_failed_name = o.name;
    }
  }

  std::string out = "{\n  \"schema\": \"gpuddt-verify-v1\",\n";
  out += "  \"mutate\": \"" + gpuddt::obs::json::escape(mutate_name) +
         "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"summary\": {\"reports\": " + std::to_string(reports.size()) +
         ", \"obligations_proved\": " + std::to_string(proved) +
         ", \"obligations_failed\": " + std::to_string(failed) + "},\n";
  out += "  \"reports\": [";
  bool first = true;
  for (const Report& r : reports) {
    out += first ? "\n" : ",\n";
    first = false;
    append_report(out, r);
  }
  out += "\n  ]\n}\n";

  if (json_out.empty()) {
    std::cout << out;
  } else {
    std::ofstream f(json_out);
    if (!f) {
      std::cerr << "dev_verify: cannot write " << json_out << "\n";
      return 2;
    }
    f << out;
  }
  std::cerr << "dev_verify: " << reports.size() << " reports, " << proved
            << " obligations proved, " << failed << " failed";
  if (failed > 0) std::cerr << " (first: " << first_failed_name << ")";
  std::cerr << "\n";
  return failed == 0 ? 0 : 1;
}
