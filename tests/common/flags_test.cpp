#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/protocol_config.hpp"

namespace dmfsgd::common {
namespace {

Flags Make(std::initializer_list<const char*> args,
           const std::vector<std::string>& allowed) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data(), allowed);
}

TEST(Flags, ParsesStringValue) {
  const Flags flags = Make({"--name=value"}, {"name"});
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_EQ(flags.GetString("name", "fallback"), "value");
}

TEST(Flags, FallbackWhenAbsent) {
  const Flags flags = Make({}, {"name"});
  EXPECT_FALSE(flags.Has("name"));
  EXPECT_EQ(flags.GetString("name", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("name", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("name", 2.5), 2.5);
  EXPECT_TRUE(flags.GetBool("name", true));
}

TEST(Flags, ParsesIntAndDouble) {
  const Flags flags = Make({"--count=42", "--rate=0.125"}, {"count", "rate"});
  EXPECT_EQ(flags.GetInt("count", 0), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.125);
}

TEST(Flags, RejectsNonNumericInt) {
  const Flags flags = Make({"--count=4x"}, {"count"});
  EXPECT_THROW((void)flags.GetInt("count", 0), std::invalid_argument);
}

TEST(Flags, BooleanForms) {
  EXPECT_TRUE(Make({"--quick"}, {"quick"}).GetBool("quick", false));
  EXPECT_TRUE(Make({"--quick=true"}, {"quick"}).GetBool("quick", false));
  EXPECT_TRUE(Make({"--quick=1"}, {"quick"}).GetBool("quick", false));
  EXPECT_FALSE(Make({"--quick=false"}, {"quick"}).GetBool("quick", true));
  EXPECT_FALSE(Make({"--quick=0"}, {"quick"}).GetBool("quick", true));
  EXPECT_THROW((void)Make({"--quick=yes"}, {"quick"}).GetBool("quick", false),
               std::invalid_argument);
}

TEST(Flags, RejectsUnknownFlag) {
  EXPECT_THROW(Make({"--typo"}, {"quick"}), std::invalid_argument);
}

TEST(Flags, RejectsMalformedFlag) {
  EXPECT_THROW(Make({"--=3"}, {"x"}), std::invalid_argument);
}

TEST(Flags, CollectsPositionalArguments) {
  const Flags flags = Make({"pos1", "--name=v", "pos2"}, {"name"});
  ASSERT_EQ(flags.Positional().size(), 2u);
  EXPECT_EQ(flags.Positional()[0], "pos1");
  EXPECT_EQ(flags.Positional()[1], "pos2");
}

TEST(Flags, NegativeNumbers) {
  const Flags flags = Make({"--offset=-3", "--gain=-1.5"}, {"offset", "gain"});
  EXPECT_EQ(flags.GetInt("offset", 0), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("gain", 0.0), -1.5);
}

/// The message of the std::invalid_argument `apply` throws, or "" if it
/// throws nothing.
template <typename Fn>
std::string InvalidArgumentMessage(Fn apply) {
  try {
    apply();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Flags, GetSizeReadsCountsAndRejectsNegatives) {
  const Flags flags = Make({"--count=12", "--zero=0", "--minus=-1"},
                           {"count", "zero", "minus", "absent"});
  EXPECT_EQ(flags.GetSize("count", 1), 12u);
  EXPECT_EQ(flags.GetSize("zero", 1), 0u);
  EXPECT_EQ(flags.GetSize("absent", 7), 7u);
  EXPECT_NE(InvalidArgumentMessage([&] { (void)flags.GetSize("minus", 0); })
                .find("--minus"),
            std::string::npos);
}

// Cast unchecked to std::size_t, a negative count wraps to ~2^64:
// --batch-size=-1 would launch 2^64 - 1 exchanges per round, and --rank=-1
// would ask for a vector larger than max_size().
TEST(Flags, ProtocolFlagsRejectNegativeCounts) {
  for (const char* arg : {"--rank=-1", "--batch-size=-1"}) {
    SCOPED_TRACE(arg);
    const Flags flags = Make({arg}, ProtocolFlagNames());
    core::ProtocolConfig config;
    const std::string message =
        InvalidArgumentMessage([&] { ApplyProtocolFlags(flags, config, 1.0); });
    const std::string flag(arg, std::string(arg).find('='));
    EXPECT_NE(message.find(flag), std::string::npos) << message;
  }
}

// ParseDouble accepts "nan" and "inf", so non-finite hyper-parameters reach
// the config from the command line; the shared validator must stop them.
TEST(Flags, NonFiniteProtocolValuesFailValidation) {
  for (const char* arg :
       {"--tau=nan", "--tau=inf", "--eta=nan", "--eta=inf", "--lambda=nan",
        "--lambda=inf"}) {
    SCOPED_TRACE(arg);
    core::ProtocolConfig config;
    ApplyProtocolFlags(Make({arg}, ProtocolFlagNames()), config, 1.0);
    EXPECT_THROW(core::ValidateProtocolConfig(config, "test"),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dmfsgd::common
