// Golden counts: serial ER's visit order, pinned.
//
// Serial ER (and every engine unit built on it) must visit the same nodes
// in the same order as the reference implementation: same value, every
// SearchStats counter, the same best root move, and — through the engine —
// the same EngineStats and simulated makespans.  The expected rows below
// were captured from the implementation that kept one std::vector of
// children per search record and sorted siblings with std::stable_sort;
// the record arena and in-place insertion sort that replaced them must
// reproduce every figure bit for bit.
//
// A mismatching or missing row fails and prints the row the code produced,
// in the table's own syntax.  Regenerate a row only for an intended change
// of visit order, and say so where the change is recorded.

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel_er.hpp"
#include "harness/tree_registry.hpp"
#include "othello/game.hpp"
#include "othello/positions.hpp"
#include "randomtree/random_tree.hpp"
#include "search/concurrent_ttable.hpp"
#include "search/er_serial.hpp"
#include "search/ordering.hpp"

namespace ers {
namespace {

using Row = std::vector<long long>;

// clang-format off
const std::map<std::string, Row>& golden() {
  static const std::map<std::string, Row> rows = {
    {"serial/R1/seed1", {-4481LL, 39034LL, 65430LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 2824974108576443785LL}},
    {"serial/R1/seed2", {-4638LL, 51267LL, 85088LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 9060431374380505898LL}},
    {"serial/R1/seed101", {-4474LL, 51540LL, 85468LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 4755308811874331991LL}},
    {"serial/R1/seed202", {-4463LL, 32296LL, 54749LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 509506416642718060LL}},
    {"serial/R1/seed303", {-4681LL, 41007LL, 69084LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 1298560441314544926LL}},
    {"serial/R2/seed1", {4455LL, 110531LL, 180225LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 2824974108576443785LL}},
    {"serial/R2/seed2", {4440LL, 94580LL, 156098LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 9060431374380505898LL}},
    {"serial/R2/seed101", {4634LL, 101500LL, 167118LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -5018943522551209353LL}},
    {"serial/R2/seed202", {4549LL, 100305LL, 164234LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -6401235945127204950LL}},
    {"serial/R2/seed303", {4597LL, 95871LL, 158318LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 501111665127488109LL}},
    {"serial/R3/seed1", {6347LL, 28224LL, 93505LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 4499891126325303371LL}},
    {"serial/R3/seed2", {6329LL, 23562LL, 79746LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -4337111741515920604LL}},
    {"serial/R3/seed101", {6160LL, 35777LL, 116993LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -5018943522551209353LL}},
    {"serial/R3/seed202", {6276LL, 32053LL, 107147LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -6401235945127204950LL}},
    {"serial/R3/seed303", {6150LL, 37258LL, 122893LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 2318962672840707277LL}},
    {"serial/ties/seed1", {1LL, 1142LL, 2465LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 1088095878528040266LL}},
    {"driver/ties/seed1", {1LL, 1142LL, 2465LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 139LL, 80LL, 8LL, 0LL, 52LL, 16LL, 0LL, 0LL, 0LL, 0LL, 0LL, 1088095878528040266LL}},
    {"sim16/ties/seed1", {1LL, 2278LL, 233LL, 480LL, 1743LL, 3601LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 233LL, 135LL, 12LL, 14LL, 81LL, 12LL, 7LL, 0LL, 0LL, 0LL, 0LL, 2824974108576443785LL}},
    {"serial/ties/seed2", {1LL, 1336LL, 2894LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -4337111741515920604LL}},
    {"driver/ties/seed2", {1LL, 1336LL, 2894LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 156LL, 88LL, 10LL, 0LL, 49LL, 16LL, 0LL, 0LL, 0LL, 0LL, 0LL, -4337111741515920604LL}},
    {"sim16/ties/seed2", {1LL, 3069LL, 247LL, 495LL, 1966LL, 4139LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 247LL, 144LL, 10LL, 18LL, 74LL, 13LL, 7LL, 0LL, 0LL, 0LL, 0LL, -4337111741515920604LL}},
    {"serial/ties/seed3", {1LL, 1465LL, 3147LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 7494218027808961171LL}},
    {"driver/ties/seed3", {1LL, 1465LL, 3147LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 177LL, 98LL, 10LL, 0LL, 59LL, 24LL, 0LL, 0LL, 0LL, 0LL, 0LL, 7494218027808961171LL}},
    {"sim16/ties/seed3", {1LL, 4534LL, 349LL, 701LL, 2551LL, 5209LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 349LL, 204LL, 14LL, 16LL, 101LL, 20LL, 2LL, 0LL, 0LL, 0LL, 0LL, 4301657548509289377LL}},
    {"serial/O1/d5/unsorted", {348LL, 2593LL, 13263LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8116082148784276458LL}},
    {"serial/O1/d5/sorted", {348LL, 573LL, 1450LL, 439LL, 5235LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8116082148784276458LL}},
    {"serial/O1/d5/tt+tables", {348LL, 556LL, 1351LL, 428LL, 5097LL, 2055LL, 35LL, 1592LL, 0LL, 0LL, 0LL, 0LL, 52LL, -8116082148784276458LL}},
    {"serial/O1/d6/unsorted", {278LL, 16572LL, 57679LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"serial/O1/d6/sorted", {278LL, 2647LL, 5551LL, 2117LL, 25513LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"serial/O1/d6/tt+tables", {278LL, 2571LL, 5099LL, 2060LL, 24835LL, 8636LL, 248LL, 6340LL, 0LL, 0LL, 4LL, 0LL, 783LL, 3638466054968655131LL}},
    {"serial/O1/d7/unsorted", {374LL, 109775LL, 536991LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"serial/O1/d7/sorted", {374LL, 7994LL, 26578LL, 1972LL, 23396LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"serial/O1/d7/tt+tables", {374LL, 7590LL, 24030LL, 1905LL, 22622LL, 35163LL, 767LL, 28686LL, 0LL, 0LL, 4LL, 0LL, 1789LL, 3638466054968655131LL}},
    {"serial/O2/d5/unsorted", {142LL, 2244LL, 7244LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"serial/O2/d5/sorted", {142LL, 896LL, 2300LL, 704LL, 9608LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"serial/O2/d5/tt+tables", {142LL, 880LL, 2120LL, 700LL, 9556LL, 3261LL, 80LL, 2482LL, 0LL, 0LL, 1LL, 1LL, 127LL, -8618304672121220312LL}},
    {"serial/O2/d6/unsorted", {166LL, 7895LL, 20849LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8997762085619283087LL}},
    {"serial/O2/d6/sorted", {166LL, 2847LL, 7467LL, 2302LL, 32508LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8997762085619283087LL}},
    {"serial/O2/d6/tt+tables", {166LL, 2725LL, 6873LL, 2200LL, 31139LL, 11309LL, 384LL, 8767LL, 0LL, 0LL, 31LL, 4LL, 990LL, -8997762085619283087LL}},
    {"serial/O2/d7/unsorted", {136LL, 33292LL, 100261LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"serial/O2/d7/sorted", {136LL, 17655LL, 42385LL, 3401LL, 46324LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"serial/O2/d7/tt+tables", {136LL, 16176LL, 36207LL, 3206LL, 43716LL, 58245LL, 1882LL, 43258LL, 0LL, 0LL, 30LL, 4LL, 6756LL, -8618304672121220312LL}},
    {"serial/O3/d5/unsorted", {444LL, 1005LL, 4623LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"serial/O3/d5/sorted", {444LL, 743LL, 2228LL, 547LL, 7213LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"serial/O3/d5/tt+tables", {444LL, 725LL, 1979LL, 545LL, 7191LL, 2999LL, 97LL, 2359LL, 0LL, 0LL, 1LL, 0LL, 88LL, -2801439731241252506LL}},
    {"serial/O3/d6/unsorted", {518LL, 5567LL, 13923LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"serial/O3/d6/sorted", {518LL, 2909LL, 6533LL, 2378LL, 34035LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"serial/O3/d6/tt+tables", {518LL, 2696LL, 5419LL, 2205LL, 31337LL, 10248LL, 710LL, 7369LL, 0LL, 0LL, 26LL, 3LL, 1090LL, -2801439731241252506LL}},
    {"serial/O3/d7/unsorted", {452LL, 23760LL, 82847LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"serial/O3/d7/sorted", {452LL, 11110LL, 31268LL, 2624LL, 37219LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"serial/O3/d7/tt+tables", {452LL, 9966LL, 25363LL, 2443LL, 34415LL, 40173LL, 1764LL, 30760LL, 0LL, 0LL, 29LL, 4LL, 3247LL, -2801439731241252506LL}},
    {"driver/R1", {-4474LL, 51540LL, 85468LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 9158LL, 4826LL, 516LL, 0LL, 1316LL, 152LL, 188LL, 0LL, 0LL, 0LL, 0LL, 4755308811874331991LL}},
    {"sim16/R1", {-4474LL, 81230LL, 12005LL, 24010LL, 68848LL, 117274LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 12005LL, 6276LL, 509LL, 323LL, 1627LL, 133LL, 30LL, 0LL, 0LL, 0LL, 0LL, 4755308811874331991LL}},
    {"driver/R2", {4549LL, 100305LL, 164234LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 6076LL, 3198LL, 341LL, 0LL, 928LL, 121LL, 123LL, 0LL, 0LL, 0LL, 0LL, -6401235945127204950LL}},
    {"sim16/R2", {4549LL, 189838LL, 9803LL, 19606LL, 164872LL, 268984LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 9803LL, 5087LL, 388LL, 349LL, 1396LL, 110LL, 51LL, 0LL, 0LL, 0LL, 0LL, -6401235945127204950LL}},
    {"driver/R3", {6150LL, 37258LL, 122893LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 13010LL, 7224LL, 266LL, 0LL, 1643LL, 169LL, 377LL, 0LL, 0LL, 0LL, 0LL, 2318962672840707277LL}},
    {"sim16/R3", {6150LL, 172902LL, 20279LL, 40558LL, 59379LL, 201926LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 20279LL, 11190LL, 291LL, 454LL, 2097LL, 99LL, 28LL, 0LL, 0LL, 0LL, 0LL, 2318962672840707277LL}},
    {"driver/O1", {374LL, 7994LL, 26578LL, 1972LL, 23396LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 3066LL, 1936LL, 101LL, 0LL, 835LL, 538LL, 107LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"sim16/O1", {374LL, 50723LL, 5490LL, 10980LL, 13778LL, 49797LL, 3397LL, 39327LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 5490LL, 3337LL, 131LL, 27LL, 1031LL, 549LL, 169LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"driver/O2", {136LL, 17655LL, 42385LL, 3401LL, 46324LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 5480LL, 3388LL, 172LL, 0LL, 1592LL, 1157LL, 61LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"sim16/O2", {136LL, 79045LL, 8172LL, 16344LL, 25163LL, 69817LL, 4913LL, 65449LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 8172LL, 4929LL, 194LL, 20LL, 1886LL, 1152LL, 120LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"driver/O3", {452LL, 11110LL, 31268LL, 2624LL, 37219LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 3936LL, 2630LL, 167LL, 0LL, 1628LL, 1384LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"sim16/O3", {452LL, 47625LL, 5273LL, 10559LL, 13898LL, 40519LL, 3492LL, 48442LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 0LL, 5273LL, 3252LL, 172LL, 12LL, 1810LL, 1492LL, 1270LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"driver+tt/O1", {374LL, 7661LL, 24077LL, 1961LL, 23286LL, 34753LL, 827LL, 27995LL, 0LL, 0LL, 3LL, 0LL, 1517LL, 3057LL, 1927LL, 100LL, 0LL, 807LL, 518LL, 107LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"sim16+tt/O1", {374LL, 55305LL, 5470LL, 10940LL, 12933LL, 44424LL, 3367LL, 38954LL, 63505LL, 1862LL, 51731LL, 0LL, 0LL, 4LL, 1LL, 4499LL, 5470LL, 3318LL, 119LL, 12LL, 989LL, 521LL, 155LL, 0LL, 0LL, 0LL, 0LL, 3638466054968655131LL}},
    {"driver+tt/O2", {136LL, 16601LL, 36521LL, 3349LL, 45636LL, 57978LL, 2018LL, 42192LL, 0LL, 0LL, 1LL, 2LL, 5991LL, 5444LL, 3352LL, 165LL, 0LL, 1517LL, 1093LL, 79LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"sim16+tt/O2", {136LL, 85890LL, 8278LL, 16556LL, 24100LL, 62541LL, 4941LL, 65730LL, 95100LL, 3091LL, 72276LL, 0LL, 0LL, 2LL, 1LL, 13432LL, 8278LL, 4981LL, 185LL, 14LL, 1811LL, 1082LL, 126LL, 0LL, 0LL, 0LL, 0LL, -8618304672121220312LL}},
    {"driver+tt/O3", {452LL, 10155LL, 25405LL, 2593LL, 36794LL, 39277LL, 1888LL, 29342LL, 0LL, 0LL, 1LL, 6LL, 2657LL, 3915LL, 2609LL, 161LL, 0LL, 1489LL, 1260LL, 0LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
    {"sim16+tt/O3", {452LL, 47164LL, 4740LL, 9495LL, 12623LL, 32790LL, 3149LL, 43705LL, 50176LL, 2313LL, 37838LL, 0LL, 0LL, 6LL, 2LL, 4124LL, 4740LL, 3157LL, 158LL, 20LL, 1650LL, 1232LL, 54LL, 0LL, 0LL, 0LL, 0LL, -2801439731241252506LL}},
  };
  return rows;
}
// clang-format on

void append_stats(Row& row, const SearchStats& s) {
  for (const std::uint64_t v :
       {s.interior_expanded, s.leaves_evaluated, s.child_sorts, s.sort_evals,
        s.tt_probes, s.tt_hits, s.tt_stores, s.moves_deferred,
        s.moves_revisited, s.order_tt_first, s.order_killer_hits,
        s.order_history_hits})
    row.push_back(static_cast<long long>(v));
}

void append_engine(Row& row, const core::EngineStats& e) {
  append_stats(row, e.search);
  for (const std::uint64_t v :
       {e.units_processed, e.serial_units, e.promotions_mandatory,
        e.promotions_speculative, e.refutations_dispatched, e.cutoffs_at_pop,
        e.dead_items_dropped, e.spec_demotions, e.spec_rewindows,
        e.spec_budget_deferrals, e.steal_events})
    row.push_back(static_cast<long long>(v));
}

template <typename Position>
long long key_or_zero(const std::optional<Position>& p) {
  return p ? static_cast<long long>(p->tt_key()) : 0;
}

void expect_golden(const std::string& name, const Row& actual) {
  const auto it = golden().find(name);
  const bool match = it != golden().end() && it->second == actual;
  if (!match) {
    std::cout << "    {\"" << name << "\", {";
    for (std::size_t i = 0; i < actual.size(); ++i)
      std::cout << (i ? ", " : "") << actual[i] << "LL";
    std::cout << "}},\n";
  }
  EXPECT_TRUE(match) << name
                     << (it == golden().end() ? ": no golden row"
                                              : ": differs from golden row");
}

/// Serial ER from the root: value, every counter, best root move.
template <Game G>
Row serial_row(const G& game, int depth, OrderingPolicy ordering = {},
               ConcurrentTranspositionTable* tt = nullptr,
               OrderingTables* tables = nullptr) {
  ErSerialSearcher<G> s(game, depth, ordering);
  s.with_shared_table(tt).with_ordering_tables(tables);
  const SearchResult r = s.run();
  Row row{r.value};
  append_stats(row, r.stats);
  row.push_back(key_or_zero(s.best_root_position()));
  return row;
}

/// The engine driven by one thread: acquire, compute, commit, in order.
template <Game G>
Row driver_row(const G& game, const core::EngineConfig& cfg) {
  core::Engine<G> engine(game, cfg);
  while (!engine.done()) {
    auto item = engine.acquire();
    if (!item) break;
    engine.commit(*item, engine.compute(*item));
  }
  EXPECT_TRUE(engine.done());
  Row row{engine.root_value()};
  append_engine(row, engine.stats());
  row.push_back(key_or_zero(engine.best_root_position()));
  return row;
}

template <Game G>
Row sim_row(const G& game, const core::EngineConfig& cfg) {
  const auto r = parallel_er_sim(game, cfg, 16);
  Row row{r.value, static_cast<long long>(r.metrics.makespan),
          static_cast<long long>(r.metrics.units),
          static_cast<long long>(r.metrics.heap_accesses)};
  append_engine(row, r.engine);
  row.push_back(key_or_zero(r.best_move));
  return row;
}

TEST(GoldenCounts, SerialErOnRandomTrees) {
  struct Shape {
    const char* name;
    int degree;
    int depth;
  };
  for (const Shape& sh : {Shape{"R1", 4, 10}, Shape{"R2", 4, 11},
                          Shape{"R3", 8, 7}}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 101ULL, 202ULL, 303ULL}) {
      const UniformRandomTree g(sh.degree, sh.depth, seed, -10'000, 10'000);
      expect_golden("serial/" + std::string(sh.name) + "/seed" +
                        std::to_string(seed),
                    serial_row(g, sh.depth));
    }
  }
}

// Leaf values in [-2, 2]: most sibling sorts break ties, so these rows pin
// the tie order of serial ER's sort and of the engine's re-typing.
TEST(GoldenCounts, TieHeavyRandomTrees) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const UniformRandomTree g(5, 7, seed, -2, 2);
    const std::string base = "ties/seed" + std::to_string(seed);
    expect_golden("serial/" + base, serial_row(g, 7));
    core::EngineConfig cfg;
    cfg.search_depth = 7;
    cfg.serial_depth = 4;
    expect_golden("driver/" + base, driver_row(g, cfg));
    expect_golden("sim16/" + base, sim_row(g, cfg));
  }
}

TEST(GoldenCounts, SerialErOnOthello) {
  for (int index = 1; index <= 3; ++index) {
    const othello::OthelloGame g(othello::paper_position(index));
    for (int depth = 5; depth <= 7; ++depth) {
      const std::string base =
          "serial/O" + std::to_string(index) + "/d" + std::to_string(depth);
      expect_golden(base + "/unsorted", serial_row(g, depth));
      OrderingPolicy sorted;
      sorted.sort_by_static_value = true;
      sorted.max_sort_ply = 6;
      expect_golden(base + "/sorted", serial_row(g, depth, sorted));
      ConcurrentTranspositionTable tt(16);
      OrderingTables tables;
      expect_golden(base + "/tt+tables",
                    serial_row(g, depth, sorted, &tt, &tables));
    }
  }
}

TEST(GoldenCounts, EngineDriverAndSimOnTable3Trees) {
  for (const auto& tree : harness::table3_trees(0)) {
    std::visit(
        [&](const auto& game) {
          expect_golden("driver/" + tree.name, driver_row(game, tree.engine));
          expect_golden("sim16/" + tree.name, sim_row(game, tree.engine));
        },
        tree.game);
  }
}

TEST(GoldenCounts, EngineWithSharedTableAndOrderingTables) {
  for (int index = 1; index <= 3; ++index) {
    const auto tree = harness::tree_by_name("O" + std::to_string(index), 0);
    const auto& game = std::get<othello::OthelloGame>(tree.game);
    core::EngineConfig cfg = tree.engine;
    {
      ConcurrentTranspositionTable tt(16);
      OrderingTables tables;
      cfg.shared_table = &tt;
      cfg.order_tables = &tables;
      expect_golden("driver+tt/" + tree.name, driver_row(game, cfg));
    }
    ConcurrentTranspositionTable tt(16);
    OrderingTables tables;
    cfg.shared_table = &tt;
    cfg.order_tables = &tables;
    expect_golden("sim16+tt/" + tree.name, sim_row(game, cfg));
  }
}

}  // namespace
}  // namespace ers
