#include "verify/verifier.h"

#include <sstream>
#include <stdexcept>

#include "mpi/canonical.h"

namespace gpuddt::verify {

namespace {

void prove(Report& rep, const char* name, bool ok, std::string detail) {
  rep.obligations.push_back({name, ok, ok ? std::string() : std::move(detail)});
}

std::string map_diff(const ByteMap& a, const ByteMap& b) {
  const std::vector<Run>& ra = a.runs();
  const std::vector<Run>& rb = b.runs();
  const std::size_t n = std::min(ra.size(), rb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(ra[i] == rb[i])) {
      std::ostringstream os;
      os << "run " << i << ": [" << ra[i].off << ","
         << ra[i].off + ra[i].len << ") vs [" << rb[i].off << ","
         << rb[i].off + rb[i].len << ")";
      return os.str();
    }
  }
  std::ostringstream os;
  os << ra.size() << " vs " << rb.size() << " runs";
  return os.str();
}

}  // namespace

Report verify_type(const mpi::Datatype& dt) {
  Report rep;
  rep.subject = dt.describe_tree();

  const bool wf = mpi::program_well_formed(dt.program());
  prove(rep, kProgramWellFormed, wf,
        "unbalanced loops or broken body_end links");
  if (!wf) return rep;  // the walkers below assume well-formed programs

  const ByteMap prog_map = program_byte_map(dt.program());

  TreeLayout tree;
  bool tree_ok = true;
  std::string tree_err;
  try {
    tree = element_byte_map(dt);
  } catch (const std::invalid_argument& e) {
    tree_ok = false;
    tree_err = e.what();
  }
  prove(rep, kTreeEquiv, tree_ok && tree.map == prog_map,
        tree_ok ? "tree vs program: " + map_diff(tree.map, prog_map)
                : tree_err);

  {
    std::ostringstream os;
    os << "touched [" << prog_map.min() << "," << prog_map.max()
       << ") vs true [" << dt.true_lb() << ","
       << dt.true_lb() + dt.true_extent() << ")";
    prove(rep, kBoundsExact,
          prog_map.min() == dt.true_lb() &&
              prog_map.max() == dt.true_lb() + dt.true_extent(),
          os.str());
  }
  {
    std::ostringstream os;
    os << "visited " << prog_map.size() << " bytes, size() = " << dt.size();
    prove(rep, kSizeExact, prog_map.size() == dt.size(), os.str());
  }
  {
    std::ostringstream os;
    os << "tree lb/extent " << tree.lb << "/" << tree.extent
       << " vs committed " << dt.lb() << "/" << dt.extent();
    prove(rep, kExtentExact,
          tree_ok && tree.lb == dt.lb() && tree.extent == dt.extent(),
          tree_ok ? os.str() : tree_err);
  }
  {
    const mpi::Signature& sig = dt.signature();
    std::int64_t sig_bytes = 0;
    for (const auto& r : sig.runs) {
      sig_bytes += r.count * mpi::primitive_size(r.prim);
    }
    // A truncated signature folds its tail into a hash; the byte total
    // is then not reconstructible, so the obligation holds vacuously.
    std::ostringstream os;
    os << "signature bytes " << sig_bytes << " vs size " << dt.size();
    prove(rep, kSignatureSize,
          sig.overflow_hash != 0 || sig_bytes == dt.size(), os.str());
  }
  prove(rep, kNcNoOverlap, prog_map.self_disjoint(),
        "two runs of one element overlap: " + prog_map.describe());
  {
    std::ostringstream os;
    os << "elements " << dt.extent() << "B apart, element width "
       << prog_map.max() - prog_map.min() << "B";
    prove(rep, kNcNoOverlapAcross, prog_map.shift_disjoint(dt.extent()),
          os.str());
  }
  return rep;
}

std::vector<core::CudaDevDist> expected_units(const mpi::Datatype& dt,
                                              std::int64_t count,
                                              std::int64_t unit_bytes) {
  // Element 0's maximal runs, shifted to each element in turn; push()
  // merges a run into the previous one where element e's last run ends
  // at element e + 1's first, so `runs` holds the maximal runs of the
  // whole message in visit order.
  const ByteMap elem = program_byte_map(dt.program());
  ByteMap runs;
  for (std::int64_t e = 0; e < count; ++e) {
    for (const Run& r : elem.runs()) runs.push(e * dt.extent() + r.off, r.len);
  }
  std::vector<core::CudaDevDist> units;
  std::int64_t pk = 0;
  for (const Run& r : runs.runs()) {
    for (std::int64_t off = 0; off < r.len; off += unit_bytes) {
      const std::int64_t len = std::min(unit_bytes, r.len - off);
      units.push_back({r.off + off, pk, len});
      pk += len;
    }
  }
  return units;
}

Report verify_dev(const mpi::Datatype& dt, std::int64_t count,
                  std::int64_t unit_bytes,
                  std::span<const core::CudaDevDist> units) {
  Report rep;
  {
    std::ostringstream os;
    os << "dev(shape=" << std::hex << dt.shape_digest() << std::dec
       << ", count=" << count << ", S=" << unit_bytes << ")";
    rep.subject = os.str();
  }
  bool len_ok = true;
  std::string len_err;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].length <= 0 || units[i].length > unit_bytes) {
      len_ok = false;
      std::ostringstream os;
      os << "unit " << i << ": length " << units[i].length
         << " outside (0, " << unit_bytes << "]";
      len_err = os.str();
      break;
    }
  }
  prove(rep, kDevUnitLen, len_ok, std::move(len_err));

  const std::vector<core::CudaDevDist> want =
      expected_units(dt, count, unit_bytes);
  {
    std::ostringstream os;
    os << units.size() << " units vs " << want.size() << " expected";
    prove(rep, kDevUnitCount, units.size() == want.size(), os.str());
  }
  if (units.size() == want.size()) {
    bool nc_ok = true;
    bool pk_ok = true;
    std::string nc_err;
    std::string pk_err;
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (nc_ok && (units[i].nc_disp != want[i].nc_disp ||
                    units[i].length != want[i].length)) {
        nc_ok = false;
        std::ostringstream os;
        os << "unit " << i << ": nc [" << units[i].nc_disp << " +"
           << units[i].length << "] vs expected [" << want[i].nc_disp
           << " +" << want[i].length << "]";
        nc_err = os.str();
      }
      if (pk_ok && units[i].pk_disp != want[i].pk_disp) {
        pk_ok = false;
        std::ostringstream os;
        os << "unit " << i << ": pk_disp " << units[i].pk_disp
           << " vs expected " << want[i].pk_disp
           << " (pack destination must tile [0, size*count) in order)";
        pk_err = os.str();
      }
      if (!nc_ok && !pk_ok) break;
    }
    prove(rep, kDevNcExact, nc_ok, std::move(nc_err));
    prove(rep, kDevPkExact, pk_ok, std::move(pk_err));
  } else {
    // Unit-by-unit comparison is meaningless on mismatched lengths, but
    // the obligations still fail with the count witness.
    prove(rep, kDevNcExact, false, "unit count mismatch");
    prove(rep, kDevPkExact, false, "unit count mismatch");
  }
  return rep;
}

Report verify_pipeline(const EnginePipelineParams& params) {
  Report rep;
  {
    std::ostringstream os;
    os << "pipeline(windows=" << params.windows
       << ", slots=" << params.desc_slots
       << ", residue_stream=" << (params.residue_separate_stream ? 1 : 0)
       << ", wire=" << params.wire_fragments
       << ", staging=" << params.staging_depth;
    if (params.stream_triggered) {
      os << ", stream_triggered=1, send_ring=" << params.send_ring_depth;
    }
    os << ")";
    rep.subject = os.str();
  }
  const PipelineDag dag = build_engine_pipeline(params);
  const std::vector<PipelineHazard> hazards = find_hazards(dag);
  std::string detail;
  if (!hazards.empty()) {
    std::ostringstream os;
    os << hazards.size() << " unordered conflicting pair(s); first: "
       << hazards.front().type << " between " << hazards.front().a
       << " and " << hazards.front().b << " on "
       << hazards.front().resource;
    detail = os.str();
  }
  prove(rep, kPipelineHazardFree, hazards.empty(), std::move(detail));
  return rep;
}

}  // namespace gpuddt::verify
