#include "test_main.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace dmv::test {

uint64_t base_seed = 1;

}  // namespace dmv::test

int main(int argc, char** argv) {
  // Translate our flags into gtest's before InitGoogleTest consumes argv.
  std::vector<char*> args;
  std::vector<std::string> storage;
  storage.reserve(size_t(argc) + 2);
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--list") == 0) {
      storage.push_back("--gtest_list_tests");
    } else if (std::strcmp(a, "--filter") == 0 && i + 1 < argc) {
      storage.push_back(std::string("--gtest_filter=") + argv[++i]);
    } else if (std::strncmp(a, "--filter=", 9) == 0) {
      storage.push_back(std::string("--gtest_filter=") + (a + 9));
    } else if (std::strcmp(a, "--seed") == 0 && i + 1 < argc) {
      dmv::test::base_seed = std::strtoull(argv[++i], nullptr, 0);
      continue;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      dmv::test::base_seed = std::strtoull(a + 7, nullptr, 0);
      continue;
    } else {
      args.push_back(argv[i]);
      continue;
    }
    args.push_back(storage.back().data());
  }
  int new_argc = int(args.size());
  // argv[argc] is a null pointer, and gtest shifts it down over each flag
  // it consumes.
  args.push_back(nullptr);
  ::testing::InitGoogleTest(&new_argc, args.data());
  if (dmv::test::base_seed != 1)
    std::printf("base_seed = %llu\n",
                (unsigned long long)dmv::test::base_seed);
  return RUN_ALL_TESTS();
}
