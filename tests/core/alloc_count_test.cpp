// Warm compute units do not touch the heap.
//
// This binary replaces the global operator new with one that counts calls.
// A single driver runs the engine to completion on one recycled
// ComputeResult: its child vector and serial-ER record arena carry their
// capacity from unit to unit, and commit hands them back.  A first search
// warms the buffers; a second, identical search on the same result must
// then compute every unit — kSerialFull, kSerialEvalFirst,
// kSerialRefuteRest, kSerialRefute, and kExpand too — without a single
// allocation.
//
// The warm-up is a whole search rather than one unit per kind because the
// buffers grow geometrically to the largest unit seen so far: on O1 a later,
// larger unit still grew them once in 312 kSerialFull units and four times
// in 1115 kSerialEvalFirst units.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <variant>

#include "core/engine.hpp"
#include "harness/tree_registry.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ers {
namespace {

using core::WorkKind;

constexpr std::array<WorkKind, 4> kSerialKinds{
    WorkKind::kSerialFull, WorkKind::kSerialEvalFirst,
    WorkKind::kSerialRefuteRest, WorkKind::kSerialRefute};

TEST(AllocCount, CounterSeesAllocations) {
  const std::uint64_t before = g_allocations.load();
  auto* p = new int(7);
  delete p;
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

/// Drives one search to completion, computing every unit into `out`.  When
/// `measured`/`allocations` are given, counts units and allocations per
/// work kind.
template <Game G>
void drive(const G& game, const core::EngineConfig& cfg,
           typename core::Engine<G>::ComputeResult& out,
           std::array<std::uint64_t, 8>* measured = nullptr,
           std::array<std::uint64_t, 8>* allocations = nullptr) {
  core::Engine<G> engine(game, cfg);
  while (!engine.done()) {
    auto item = engine.acquire();
    if (!item) break;
    const std::uint64_t before = g_allocations.load();
    engine.compute_into(*item, out);
    if (measured != nullptr) {
      const auto k = static_cast<std::size_t>(item->kind);
      ++(*measured)[k];
      (*allocations)[k] += g_allocations.load() - before;
    }
    engine.commit(*item, std::move(out));
  }
  ASSERT_TRUE(engine.done());
}

template <Game G>
void expect_warm_units_allocation_free(const G& game,
                                       const core::EngineConfig& cfg,
                                       const std::string& tree) {
  typename core::Engine<G>::ComputeResult out;
  drive(game, cfg, out);
  std::array<std::uint64_t, 8> measured{};
  std::array<std::uint64_t, 8> allocations{};
  drive(game, cfg, out, &measured, &allocations);
  for (const WorkKind kind : kSerialKinds)
    EXPECT_GT(measured[static_cast<std::size_t>(kind)], 0u)
        << tree << ": no unit of kind " << static_cast<int>(kind);
  for (std::size_t k = 0; k < measured.size(); ++k)
    EXPECT_EQ(allocations[k], 0u)
        << tree << " kind " << k << ": " << allocations[k]
        << " allocations over " << measured[k] << " warm units";
}

TEST(AllocCount, WarmUnitsOnRandomTreeR1) {
  const auto tree = harness::tree_by_name("R1", 0);
  expect_warm_units_allocation_free(
      std::get<UniformRandomTree>(tree.game), tree.engine, tree.name);
}

TEST(AllocCount, WarmUnitsOnOthelloO1) {
  const auto tree = harness::tree_by_name("O1", 0);
  expect_warm_units_allocation_free(
      std::get<othello::OthelloGame>(tree.game), tree.engine, tree.name);
}

}  // namespace
}  // namespace ers
