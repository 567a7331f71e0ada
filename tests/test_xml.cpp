// Unit tests: the XML DOM parser/writer and the Arcade-XML model format.
#include <gtest/gtest.h>

#include "arcade/compiler.hpp"
#include "arcade/measures.hpp"
#include "arcade/xml_io.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"
#include "xml/xml.hpp"

namespace xml = arcade::xml;
namespace core = arcade::core;
namespace wt = arcade::watertree;

TEST(Xml, ParsesElementsAttributesText) {
    const auto root = xml::parse_document(
        "<?xml version=\"1.0\"?>\n"
        "<root a=\"1\" b='two'>\n"
        "  <child>hello</child>\n"
        "  <empty/>\n"
        "</root>");
    EXPECT_EQ(root->name(), "root");
    EXPECT_EQ(root->attribute("a"), "1");
    EXPECT_EQ(root->attribute("b"), "two");
    ASSERT_EQ(root->children().size(), 2u);
    EXPECT_EQ(root->first_child("child")->text(), "hello");
    EXPECT_TRUE(root->first_child("empty")->children().empty());
}

TEST(Xml, DecodesEntitiesAndCdata) {
    const auto root = xml::parse_document(
        "<r attr=\"a&lt;b&amp;c\">x &gt; y <![CDATA[<raw&stuff>]]></r>");
    EXPECT_EQ(root->attribute("attr"), "a<b&c");
    EXPECT_NE(root->text().find("x > y"), std::string::npos);
    EXPECT_NE(root->text().find("<raw&stuff>"), std::string::npos);
}

TEST(Xml, SkipsCommentsAndDoctype) {
    const auto root = xml::parse_document(
        "<!-- header --><!DOCTYPE whatever><r><!-- inner --><c/></r>");
    EXPECT_EQ(root->name(), "r");
    EXPECT_EQ(root->children().size(), 1u);
}

TEST(Xml, RejectsMalformedDocuments) {
    EXPECT_THROW(xml::parse_document("<a><b></a></b>"), arcade::ParseError);  // mismatch
    EXPECT_THROW(xml::parse_document("<a>"), arcade::ParseError);             // unterminated
    EXPECT_THROW(xml::parse_document("<a attr=1/>"), arcade::ParseError);     // unquoted
    EXPECT_THROW(xml::parse_document("<a/><b/>"), arcade::ParseError);        // two roots
    EXPECT_THROW(xml::parse_document("plain text"), arcade::ParseError);
    EXPECT_THROW(xml::parse_document("<a>&unknown;</a>"), arcade::ParseError);
}

TEST(Xml, DeepNestingThrowsParseErrorInsteadOfOverflowingTheStack) {
    // 100000 nested elements: the parser stops at its nesting bound (256)
    // at the opening '<' of element 257, byte offset 768.
    const std::size_t deep = 100000;
    std::string text;
    for (std::size_t i = 0; i < deep; ++i) text += "<a>";
    for (std::size_t i = 0; i < deep; ++i) text += "</a>";
    try {
        (void)xml::parse_document(text);
        ADD_FAILURE() << "no ParseError";
    } catch (const arcade::ParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nested deeper than 256 levels at byte offset 768"), std::string::npos)
            << what;
        EXPECT_EQ(e.column(), 769u);
    }
    // Nesting below the bound still parses.
    std::string shallow;
    for (int i = 0; i < 200; ++i) shallow += "<a>";
    for (int i = 0; i < 200; ++i) shallow += "</a>";
    EXPECT_EQ(xml::parse_document(shallow)->name(), "a");
}

TEST(Xml, WriteParseRoundTrip) {
    xml::Element root("config");
    root.set_attribute("version", "1");
    auto child = root.add_child("item");
    child->set_attribute("name", "a<b");  // must be escaped
    child->set_text("5 & 6");
    const std::string text = xml::write_document(root);
    const auto back = xml::parse_document(text);
    EXPECT_EQ(back->attribute("version"), "1");
    EXPECT_EQ(back->first_child("item")->attribute("name"), "a<b");
    EXPECT_EQ(back->first_child("item")->text(), "5 & 6");
}

TEST(ArcadeXml, WaterTreatmentRoundTripPreservesEverything) {
    for (const auto& strat : wt::paper_strategies()) {
        const auto original = wt::line2(strat);
        const auto restored = core::model_from_xml(core::model_to_xml(original));
        ASSERT_EQ(restored.components.size(), original.components.size());
        ASSERT_EQ(restored.repair_units.size(), original.repair_units.size());
        ASSERT_EQ(restored.phases.size(), original.phases.size());
        EXPECT_EQ(restored.repair_units[0].policy, original.repair_units[0].policy);
        EXPECT_EQ(restored.repair_units[0].crews, original.repair_units[0].crews);
        // the restored model compiles to the same chain
        const auto a = core::compile(original);
        const auto b = core::compile(restored);
        EXPECT_EQ(a.state_count(), b.state_count()) << strat.name;
        EXPECT_EQ(a.transition_count(), b.transition_count()) << strat.name;
    }
}

TEST(ArcadeXml, HandWrittenModelParses) {
    const char* text = R"(<?xml version="1.0"?>
<arcade name="tiny">
  <components>
    <component name="cpu" mttf="100" mttr="2"/>
    <component name="disk1" mttf="200" mttr="8" failedCostRate="5"/>
    <component name="disk2" mttf="200" mttr="8" failedCostRate="5"/>
  </components>
  <repairUnits>
    <repairUnit name="crew" policy="priority" crews="1">
      <serves component="cpu" priority="0"/>
      <serves component="disk1" priority="1"/>
      <serves component="disk2" priority="1"/>
    </repairUnit>
  </repairUnits>
  <spareUnits>
    <spareUnit name="disks" required="1">
      <manages component="disk1"/>
      <manages component="disk2"/>
    </spareUnit>
  </spareUnits>
  <serviceModel>
    <phase name="compute" required="1">
      <member component="cpu"/>
    </phase>
    <phase name="storage" required="1" spareManaged="true">
      <member component="disk1"/>
      <member component="disk2"/>
    </phase>
  </serviceModel>
</arcade>)";
    const auto model = core::model_from_xml(text);
    EXPECT_EQ(model.components.size(), 3u);
    EXPECT_EQ(model.repair_units[0].policy, core::RepairPolicy::Priority);
    EXPECT_EQ(model.components[1].failed_cost_rate, 5.0);
    const auto compiled = core::compile(model);
    EXPECT_GT(compiled.state_count(), 0u);
    EXPECT_GT(core::availability(compiled), 0.9);
}

TEST(ArcadeXml, InfiniteAndSubnormalMeansAreTypedErrors) {
    const auto tiny = [](const std::string& mttf, const std::string& mttr) {
        return R"(<arcade name="tiny">
  <components>
    <component name="cpu" mttf=")" + mttf + R"(" mttr=")" + mttr + R"("/>
  </components>
  <repairUnits>
    <repairUnit name="crew" policy="dedicated" crews="1"><serves component="cpu"/></repairUnit>
  </repairUnits>
  <serviceModel>
    <phase name="compute" required="1"><member component="cpu"/></phase>
  </serviceModel>
</arcade>)";
    };
    // std::stod reads "inf": an infinite mean has rate 0, on which compile
    // used to abort.
    for (const auto& [mttf, mttr, quantity] :
         {std::tuple{"inf", "2", "MTTF"}, std::tuple{"100", "inf", "MTTR"}}) {
        try {
            (void)core::compile(core::model_from_xml(tiny(mttf, mttr)));
            ADD_FAILURE() << "expected ModelError for mttf=" << mttf << " mttr=" << mttr;
        } catch (const arcade::ModelError& e) {
            const std::string message = e.what();
            EXPECT_NE(message.find("component 'cpu' has " + std::string(quantity)),
                      std::string::npos)
                << message;
        }
    }
    // A subnormal mean (infinite rate) underflows std::stod: the attribute
    // is refused as not a number before a model exists.
    EXPECT_THROW((void)core::model_from_xml(tiny("100", "5e-324")), arcade::ParseError);
    EXPECT_THROW((void)core::model_from_xml(tiny("5e-324", "2")), arcade::ParseError);
}

TEST(ArcadeXml, MissingSectionsAreErrors) {
    EXPECT_THROW(core::model_from_xml("<arcade/>"), arcade::ParseError);
    EXPECT_THROW(core::model_from_xml("<other/>"), arcade::ParseError);
    EXPECT_THROW(
        core::model_from_xml("<arcade><components/><serviceModel/></arcade>"),
        arcade::Error);
}
